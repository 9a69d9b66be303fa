package journal

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func call(id uint64) *function.Call {
	return &function.Call{ID: id, Spec: &function.Spec{Name: "f"}}
}

func TestSynchronousDurability(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	l.Append(OpEnqueue, call(1), 0)
	l.Append(OpLease, call(1), 0)
	if l.Synced() != 2 || l.Unsynced() != 0 {
		t.Fatalf("zero flush lag must sync every append: synced=%d unsynced=%d", l.Synced(), l.Unsynced())
	}
	if torn := l.Crash(); len(torn) != 0 {
		t.Fatalf("synchronous log lost %d entries on crash", len(torn))
	}
	if l.Len() != 2 {
		t.Fatalf("durable prefix truncated: len=%d", l.Len())
	}
}

func TestFlushLagTornTail(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 100*time.Millisecond)
	l.Append(OpEnqueue, call(1), 0)
	e.RunFor(150 * time.Millisecond) // one flush tick passes
	l.Append(OpEnqueue, call(2), 0)
	l.Append(OpEnqueue, call(3), 0)
	if l.Synced() != 1 {
		t.Fatalf("synced=%d, want 1 (only the pre-flush entry)", l.Synced())
	}
	torn := l.Crash()
	if len(torn) != 2 || torn[0].Call.ID != 2 || torn[1].Call.ID != 3 {
		t.Fatalf("torn tail = %v, want entries for calls 2,3", torn)
	}
	if l.Len() != 1 || l.Entries()[0].Call.ID != 1 {
		t.Fatalf("durable prefix wrong after crash: %v", l.Entries())
	}
}

func TestSeqStrictlyIncreasing(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	var last uint64
	for i := 1; i <= 10; i++ {
		s := l.Append(OpEnqueue, call(uint64(i)), 0)
		if s <= last {
			t.Fatalf("seq %d not > %d", s, last)
		}
		last = s
	}
}

func TestReplayerBoundedBatches(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	for i := 1; i <= 10; i++ {
		l.Append(OpEnqueue, call(uint64(i)), 0)
	}
	r := l.Replay()
	if r.Total() != 10 {
		t.Fatalf("Total=%d, want 10", r.Total())
	}
	var seen []uint64
	for {
		batch := r.Next(3)
		if batch == nil {
			break
		}
		if len(batch) > 3 {
			t.Fatalf("batch of %d exceeds bound 3", len(batch))
		}
		for _, en := range batch {
			seen = append(seen, en.Call.ID)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("replayed %d entries, want 10", len(seen))
	}
	for i, id := range seen {
		if id != uint64(i+1) {
			t.Fatalf("replay out of order at %d: %d", i, id)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining=%d after exhaustion", r.Remaining())
	}
}

func TestReplayerExcludesUnsynced(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, time.Second)
	l.Append(OpEnqueue, call(1), 0)
	e.RunFor(time.Second + time.Millisecond)
	l.Append(OpEnqueue, call(2), 0) // unsynced
	r := l.Replay()
	if r.Total() != 1 {
		t.Fatalf("replayer covers %d entries, want only the durable 1", r.Total())
	}
}

func TestReplayerSurvivesCompaction(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	l.compactAt = 4
	for i := 1; i <= 3; i++ {
		l.Append(OpEnqueue, call(uint64(i)), 0)
	}
	r := l.Replay()
	// Settle call 1 and force a compaction behind the replayer's back.
	l.Append(OpAck, call(1), 0)
	l.Append(OpEnqueue, call(4), 0)
	l.flush()
	var ids []uint64
	for {
		b := r.Next(8)
		if b == nil {
			break
		}
		for _, en := range b {
			ids = append(ids, en.Call.ID)
		}
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("snapshot iterator disturbed by compaction: %v", ids)
	}
}

func TestCompactDropsSettledCalls(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	l.compactAt = 3
	l.Append(OpEnqueue, call(1), 0)
	l.Append(OpLease, call(1), 0)
	l.Append(OpAck, call(1), 0)
	l.Append(OpEnqueue, call(2), 0)
	l.flush()
	if l.Len() != 1 || l.Entries()[0].Call.ID != 2 {
		t.Fatalf("compaction kept %d entries: %v", l.Len(), l.Entries())
	}
	if l.Synced() != 1 {
		t.Fatalf("synced=%d after compaction, want 1", l.Synced())
	}
	// Seq continues, never renumbered.
	if s := l.Append(OpLease, call(2), 0); s != 5 {
		t.Fatalf("seq after compaction = %d, want 5", s)
	}
}

// A synchronous log has no flush tick, so it compacts as it appends:
// across many enqueue+lease+ack cycles it retains at most compactAt
// records plus one cycle's worth, not every record ever appended.
func TestSynchronousLogCompacts(t *testing.T) {
	l := New(sim.NewEngine(), 0)
	for id := uint64(1); id <= 50_000; id++ {
		c := call(id)
		l.Append(OpEnqueue, c, 0)
		l.Append(OpLease, c, 0)
		l.Append(OpAck, c, 0)
		if l.Len() > l.compactAt+3 {
			t.Fatalf("after %d cycles the log retains %d records, want at most %d", id, l.Len(), l.compactAt+3)
		}
	}
}

// Only a durable terminal settles a call. With a flush lag, compaction
// runs on the flush tick alone, after the horizon has moved, so a
// terminal appended since the last tick is still in the torn window and its call keeps every
// record: a crash tears the terminal off and replays from what remains.
func TestCompactKeepsUnsyncedTerminal(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, time.Second)
	l.compactAt = 1
	l.Append(OpEnqueue, call(1), 0)
	l.Append(OpEnqueue, call(2), 0)
	e.RunFor(time.Second + time.Millisecond) // both durable; over compactAt, nothing settled
	l.Append(OpAck, call(1), 0)              // terminal sits in the torn window
	if l.Len() != 3 || l.Unsynced() != 1 {
		t.Fatalf("len=%d unsynced=%d, want 3 and 1", l.Len(), l.Unsynced())
	}
	torn := l.Crash()
	if len(torn) != 1 || torn[0].Op != OpAck {
		t.Fatalf("torn tail = %v, want the unsynced ack", torn)
	}
	// The durable prefix still resurrects the call, and the torn ack does
	// not settle it at the next tick either.
	e.RunFor(time.Second)
	if l.Len() != 2 || l.Entries()[0].Op != OpEnqueue || l.Entries()[0].Call.ID != 1 {
		t.Fatalf("prefix after crash and a further flush = %v", l.Entries())
	}
}

// A call is settled by its newest record: one appended to again after a
// terminal (a drain restored it) keeps its whole chain until it settles
// for good.
func TestCompactKeepsCallLiveAfterTerminal(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	l.compactAt = 2
	c := call(1)
	l.Append(OpEnqueue, c, 0)
	l.Append(OpAck, c, 0)
	l.Append(OpEnqueue, c, 0)
	l.flush()
	if l.Len() != 3 {
		t.Fatalf("compaction erased a live call behind its stale ack: len=%d", l.Len())
	}
	l.Append(OpAck, c, 0)
	l.flush()
	if l.Len() != 0 {
		t.Fatalf("settled call kept %d records", l.Len())
	}
}

func TestSetFlushLagToZeroSyncs(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, time.Minute)
	l.Append(OpEnqueue, call(1), 0)
	if l.Unsynced() != 1 {
		t.Fatalf("unsynced=%d, want 1", l.Unsynced())
	}
	l.SetFlushLag(0)
	if l.Unsynced() != 0 {
		t.Fatalf("dropping lag to 0 must sync: unsynced=%d", l.Unsynced())
	}
	l.Append(OpLease, call(1), 0)
	if l.Unsynced() != 0 {
		t.Fatalf("appends after lag 0 must be synchronous")
	}
}

func TestRaisingFlushLagKeepsDurable(t *testing.T) {
	e := sim.NewEngine()
	l := New(e, 0)
	l.Append(OpEnqueue, call(1), 0)
	l.SetFlushLag(time.Minute)
	l.Append(OpEnqueue, call(2), 0)
	if l.Synced() != 1 {
		t.Fatalf("synced=%d; raising the lag must not undo durability", l.Synced())
	}
	e.RunFor(time.Minute + time.Millisecond)
	if l.Synced() != 2 {
		t.Fatalf("flush tick did not advance the horizon: synced=%d", l.Synced())
	}
}

// The cost model: a flush tick pays for the calls settled since the last
// compaction, not for the records retained. The three tests below pin it.

// A log retains one Entry per record of every unsettled call; the chain
// link rides in padding and must not widen it.
func TestEntryIs40Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 40 {
		t.Fatalf("Entry is %d bytes, want 40", got)
	}
}

// flushRig is a log retaining live records of unsettled calls, twice its
// compaction threshold — the state a shard with a deep leased backlog
// never leaves — plus 256 calls that settle between flush ticks.
type flushRig struct {
	e       *sim.Engine
	l       *Log
	settled []*function.Call
}

const flushRigLag = 100 * time.Millisecond

func newFlushRig(live int) *flushRig {
	r := &flushRig{e: sim.NewEngine()}
	r.l = New(r.e, flushRigLag)
	r.l.compactAt = live / 2
	for i := 0; i < live; i++ {
		r.l.Append(OpEnqueue, call(uint64(i+1)), 0)
	}
	for i := 0; i < 256; i++ {
		r.settled = append(r.settled, call(uint64(1<<32+i)))
	}
	return r
}

func (r *flushRig) settle() {
	for _, c := range r.settled {
		r.l.Append(OpEnqueue, c, 0)
		r.l.Append(OpAck, c, 0)
	}
}

func (r *flushRig) flush() { r.e.RunFor(flushRigLag) }

func TestSteadyStateFlushAllocatesNothing(t *testing.T) {
	r := newFlushRig(32_768)
	for i := 0; i < 64; i++ { // past the first squeezes: slots and scratch are sized
		r.settle()
		r.flush()
	}
	if avg := testing.AllocsPerRun(200, func() { r.settle(); r.flush() }); avg != 0 {
		t.Fatalf("settling 256 calls and flushing allocates %v times per tick, want 0", avg)
	}
	if r.l.Len() != 32_768 {
		t.Fatalf("%d records retained, want 32768", r.l.Len())
	}
}

func BenchmarkJournalFlush(b *testing.B) {
	for _, live := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("live=%dk", live/1000), func(b *testing.B) {
			r := newFlushRig(live)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r.settle()
				b.StartTimer()
				r.flush()
			}
		})
	}
}

// The rescan this replaced visited every retained record on every flush.
// A compaction now blanks exactly the records of the calls settled since
// the last one and leaves the long-held records at the front of the log
// where they are: neither blanked nor moved, by the compaction or by the
// squeezes that reclaim the blanked slots behind them.
func TestFlushCostFollowsSettledNotRetained(t *testing.T) {
	const live = 100_000
	r := newFlushRig(live)
	r.flush()
	held := slices.Clone(r.l.entries)
	squeezes := 0
	for range 40 {
		r.settle()
		if len(r.l.settled) != len(r.settled) {
			t.Fatalf("%d calls queued for the next compaction, want the %d just settled", len(r.l.settled), len(r.settled))
		}
		dead, slots := r.l.dead, len(r.l.entries)
		r.flush()
		blanked := 2 * len(r.settled) // an enqueue and an ack each
		switch {
		case r.l.dead == dead+blanked:
			if r.l.firstDead < live {
				t.Fatalf("first dead slot %d lies among the %d held records", r.l.firstDead, live)
			}
		case r.l.dead == 0 && len(r.l.entries) == slots-dead-blanked:
			squeezes++
		default:
			t.Fatalf("compaction left %d dead of %d slots; want %d more dead than %d, or all reclaimed",
				r.l.dead, len(r.l.entries), blanked, dead)
		}
		if r.l.Len() != live || !slices.Equal(r.l.entries[:live], held) {
			t.Fatalf("the %d held records were touched: %d retained", live, r.l.Len())
		}
	}
	if squeezes == 0 {
		t.Fatal("no squeeze ran: the test never saw dead slots reclaimed")
	}
}
