package journal

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// refLog is the journal as it was before records were chained: one slice
// that holds exactly the retained records, and a compaction that rescans
// and rewrites all of it (settling a call by its newest record, as the
// chained log does). It is the oracle the chained Log must match record
// for record at every instant.
type refLog struct {
	engine    *sim.Engine
	flushLag  time.Duration
	flusher   *sim.Ticker
	entries   []Entry
	seq       uint64
	synced    int
	compactAt int
}

func newRefLog(engine *sim.Engine, lag time.Duration, compactAt int) *refLog {
	r := &refLog{engine: engine, compactAt: compactAt}
	r.setFlushLag(lag)
	return r
}

func (r *refLog) setFlushLag(lag time.Duration) {
	if r.flusher != nil {
		r.flusher.Stop()
		r.flusher = nil
	}
	r.flushLag = lag
	if lag <= 0 {
		r.synced = len(r.entries)
		return
	}
	r.flusher = r.engine.Every(lag, r.flush)
}

func (r *refLog) append(op Op, c *function.Call, readyAt sim.Time) uint64 {
	r.seq++
	r.entries = append(r.entries, Entry{Seq: r.seq, At: r.engine.Now(), Op: op, Call: c, ReadyAt: readyAt})
	if r.flushLag <= 0 {
		r.synced = len(r.entries)
		if len(r.entries) > r.compactAt {
			r.compact()
		}
	}
	return r.seq
}

func (r *refLog) flush() {
	r.synced = len(r.entries)
	if len(r.entries) > r.compactAt {
		r.compact()
	}
}

func (r *refLog) compact() {
	settled := make(map[uint64]bool) // newest durable record is terminal
	for _, e := range r.entries[:r.synced] {
		settled[e.Call.ID] = e.Op.Terminal()
	}
	kept := r.entries[:0]
	newSynced := 0
	for i, e := range r.entries {
		if settled[e.Call.ID] {
			continue
		}
		kept = append(kept, e)
		if i < r.synced {
			newSynced = len(kept)
		}
	}
	clear(r.entries[len(kept):])
	r.entries = kept
	r.synced = newSynced
}

func (r *refLog) crash() []Entry {
	torn := append([]Entry(nil), r.entries[r.synced:]...)
	r.entries = r.entries[:r.synced]
	return torn
}

func (r *refLog) replay() []Entry { return append([]Entry(nil), r.entries[:r.synced]...) }

// sameRecords compares what a record says, not where its chain points.
func sameRecords(got, want []Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.At != w.At || g.Op != w.Op || g.Call != w.Call || g.ReadyAt != w.ReadyAt {
			return fmt.Errorf("record %d = {seq %d at %v %v call %d ready %v}, want {seq %d at %v %v call %d ready %v}",
				i, g.Seq, g.At, g.Op, g.Call.ID, g.ReadyAt, w.Seq, w.At, w.Op, w.Call.ID, w.ReadyAt)
		}
	}
	return nil
}

// checkSlots verifies the chained log's own structure without disturbing
// it (Entries would squeeze) and returns the retained records: the dead
// count and first dead slot are exact, dead slots are confined to the
// durable prefix, and the chains partition the retained records by call,
// newest first.
func checkSlots(l *Log) ([]Entry, error) {
	var live []Entry
	dead := 0
	for i, e := range l.entries {
		if e.Call == nil {
			if dead == 0 && i != l.firstDead {
				return nil, fmt.Errorf("first dead slot is %d, firstDead says %d", i, l.firstDead)
			}
			dead++
			if i >= l.synced {
				return nil, fmt.Errorf("dead slot %d in the torn window (synced %d)", i, l.synced)
			}
			continue
		}
		live = append(live, e)
	}
	if dead != l.dead {
		return nil, fmt.Errorf("dead = %d, counted %d blank slots", l.dead, dead)
	}
	chained := 0
	for id, i := range l.last {
		for at := int32(len(l.entries)); i >= 0; i = l.entries[i].prev {
			if i >= at {
				return nil, fmt.Errorf("call %d: chain does not descend (%d after %d)", id, i, at)
			}
			if c := l.entries[i].Call; c == nil || c.ID != id {
				return nil, fmt.Errorf("call %d: chain reaches slot %d holding %v", id, i, c)
			}
			at = i
			chained++
		}
	}
	if chained != len(live) {
		return nil, fmt.Errorf("chains cover %d records, %d retained", chained, len(live))
	}
	return live, nil
}

// runAgainstReference interprets prog as a sequence of journal operations
// and applies each to a chained Log and to the reference on one engine,
// comparing everything observable after every step. It returns the number
// of steps taken.
func runAgainstReference(t testing.TB, prog []byte) int {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	lags := [...]time.Duration{0, 30 * time.Millisecond, 100 * time.Millisecond, time.Second}

	e := sim.NewEngine()
	lag := lags[next()%len(lags)]
	compactAt := [...]int{4, 4, 16, 64}[next()%4]
	ids := [...]int{6, 24, 200}[next()%3]
	l := New(e, lag)
	l.compactAt = compactAt
	ref := newRefLog(e, lag, compactAt)
	calls := make(map[uint64]*function.Call)

	type snapshot struct {
		got  *Replayer
		want []Entry
	}
	var held []snapshot
	drain := func(s *snapshot, max int) {
		t.Helper()
		if s.got.Total() != len(s.want)+s.got.pos {
			t.Fatalf("replayer spans %d, want %d", s.got.Total(), len(s.want)+s.got.pos)
		}
		batch := s.got.Next(max)
		n := min(max, len(s.want))
		if err := sameRecords(batch, s.want[:n]); err != nil {
			t.Fatalf("replay batch: %v", err)
		}
		s.want = s.want[n:]
	}

	steps := 0
	for pos < len(prog) {
		steps++
		switch k := next() % 16; {
		case k < 9:
			id := uint64(next()%ids) + 1
			// Enqueue, lease and retry twice as often as the terminals,
			// so chains grow before they settle.
			op := [...]Op{OpEnqueue, OpLease, OpRetry, OpAck, OpDeadLetter, OpEnqueue, OpLease, OpRetry}[next()%8]
			c := calls[id]
			if c == nil {
				c = call(id)
				calls[id] = c
			}
			readyAt := e.Now() + sim.Time(next())*time.Millisecond
			if got, want := l.Append(op, c, readyAt), ref.append(op, c, readyAt); got != want {
				t.Fatalf("step %d: Append seq %d, want %d", steps, got, want)
			}
		case k < 12:
			e.RunFor(time.Duration(next()%40) * 10 * time.Millisecond)
		case k == 12:
			lag = lags[next()%len(lags)]
			l.SetFlushLag(lag)
			ref.setFlushLag(lag)
		case k == 13:
			if err := sameRecords(l.Crash(), ref.crash()); err != nil {
				t.Fatalf("step %d: torn tail: %v", steps, err)
			}
		case k == 14:
			if n := next(); n%2 == 0 || len(held) == 0 {
				held = append(held, snapshot{l.Replay(), ref.replay()})
			} else {
				drain(&held[n%len(held)], 1+n%5)
			}
		default:
			if err := sameRecords(l.Entries(), ref.entries); err != nil {
				t.Fatalf("step %d: Entries: %v", steps, err)
			}
		}

		live, err := checkSlots(l)
		if err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		if err := sameRecords(live, ref.entries); err != nil {
			t.Fatalf("step %d: retained records: %v", steps, err)
		}
		if l.Len() != len(ref.entries) || l.Synced() != ref.synced || l.Unsynced() != len(ref.entries)-ref.synced {
			t.Fatalf("step %d: len/synced/unsynced = %d/%d/%d, want %d/%d/%d", steps,
				l.Len(), l.Synced(), l.Unsynced(), len(ref.entries), ref.synced, len(ref.entries)-ref.synced)
		}
	}
	for i := range held {
		for len(held[i].want) > 0 || held[i].got.Remaining() > 0 {
			drain(&held[i], 7)
		}
	}
	return steps
}

func TestLogMatchesReference(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 24; seed++ {
		prog := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(prog)
		steps += runAgainstReference(t, prog)
	}
	if steps < 10_000 {
		t.Fatalf("only %d random steps compared, want at least 10000", steps)
	}
}

// FuzzLogMatchesReference explores operation sequences beyond the seeded
// ones; testdata/fuzz holds the checked-in corpus.
func FuzzLogMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runAgainstReference(t, prog) })
}
