// Package journal is a write-ahead log on the simulated clock, the
// durability substrate under durableq (paper §4.3: DurableQ "stores
// calls durably" — a shard process can die and hand its successor the
// log). A Log is an ordered sequence of per-call records; records become
// durable when the sync horizon passes them. With a zero flush lag every
// append is synchronously durable; with a positive lag the horizon
// advances on a periodic flush tick, so a crash loses the unflushed tail
// — deterministic torn-tail truncation, the window the recovery
// experiments measure lost calls against.
//
// The log itself is storage-shaped but policy-free: it does not know
// what the records mean. The owner (a DurableQ shard) appends records at
// its state transitions, calls Crash to truncate to the durable prefix,
// and drives a bounded Replayer over the survivors to rebuild state.
package journal

import (
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// Op is the record type of one journal entry. Only state a successor
// needs is logged: enqueue, lease (delivery in progress — uncertain
// outcome after a crash), retry (requeued with a backoff horizon), and
// the two terminal settlements. Renewals are deliberately not logged: a
// crash orphans every outstanding lease regardless of its remaining
// time, so replay treats any leased call as redeliverable immediately.
type Op uint8

const (
	// OpEnqueue: the call was durably accepted.
	OpEnqueue Op = iota
	// OpLease: the call was offered to a scheduler.
	OpLease
	// OpRetry: the call was requeued (nack or lease expiry) with a
	// ready-at horizon.
	OpRetry
	// OpAck: terminal success.
	OpAck
	// OpDeadLetter: terminal failure.
	OpDeadLetter
)

var opNames = [...]string{"enqueue", "lease", "retry", "ack", "dead-letter"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// Terminal reports whether the op settles its call: a durable terminal
// record means the call needs no recovery action.
func (o Op) Terminal() bool { return o == OpAck || o == OpDeadLetter }

// Entry is one journal record. It is 40 bytes: prev sits in the padding
// after Op, and a log retains one Entry per record of every unsettled call.
type Entry struct {
	// Seq is the record's position in the log, strictly increasing and
	// never reused (compaction removes entries but does not renumber).
	Seq uint64
	// At is the virtual time the record was appended.
	At sim.Time
	// Op is the record type.
	Op Op
	// prev is the slot of the same call's previous record, -1 for the
	// first: a call's records form a chain from Log.last, so settling it
	// touches those records and no others.
	prev int32
	// Call is the journaled call. The simulation shares the live object
	// rather than serializing a copy; replay requeues it as-is.
	Call *function.Call
	// ReadyAt is the delivery horizon for OpEnqueue/OpRetry records
	// (when the call becomes eligible again).
	ReadyAt sim.Time
}

// Log is one component's write-ahead log.
type Log struct {
	engine   *sim.Engine
	flushLag time.Duration
	flusher  *sim.Ticker

	// entries are the log's slots: the retained records in append order,
	// interleaved with dead slots (Call == nil) that compaction blanked and
	// squeeze has not reclaimed yet. Everything observable — Len, Synced,
	// Entries, Crash, Replay — is the retained records alone.
	entries []Entry
	seq     uint64
	// synced is the durable prefix in slots: entries[:synced] survive a
	// crash, entries[synced:] are the torn tail.
	synced int
	// dead counts blanked slots. Compaction runs on a fully synced log,
	// so every one of them lies in entries[:synced].
	dead int
	// firstDead is the lowest dead slot while dead > 0; squeeze starts
	// there.
	firstDead int
	// last maps a call ID to the slot of its newest record, the head of
	// its chain.
	last map[uint64]int32
	// settled lists the calls whose terminal records were appended since
	// the last compaction, in append order — the only chains the next
	// compaction has to visit. A call that is appended to again after its
	// terminal leaves the list at that compaction and rejoins it with its
	// next terminal.
	settled []uint64
	// remap is squeeze's old-slot → new-slot scratch, kept between calls.
	remap []int32
	// compactAt bounds retained entries: once the log exceeds it after a
	// flush or a synchronous append, records of durably-settled calls are
	// dropped.
	compactAt int

	appends uint64
}

// New returns an empty log. flushLag is the sync-horizon lag: 0 makes
// every append synchronously durable; a positive lag advances the
// horizon on a periodic tick, leaving an unflushed window a crash can
// tear off.
func New(engine *sim.Engine, flushLag time.Duration) *Log {
	l := &Log{engine: engine, compactAt: 16384, last: make(map[uint64]int32)}
	l.SetFlushLag(flushLag)
	return l
}

// SetFlushLag changes the sync-horizon lag at the current virtual time
// (chaos injection: a degraded journal device). Lowering it to zero
// syncs immediately; raising it leaves already-durable entries durable.
func (l *Log) SetFlushLag(lag time.Duration) {
	if l.flusher != nil {
		l.flusher.Stop()
		l.flusher = nil
	}
	l.flushLag = lag
	if lag <= 0 {
		l.Sync()
		return
	}
	l.flusher = l.engine.Every(lag, l.flush)
}

// Append adds one record and returns its sequence number. With a zero
// flush lag the record is durable immediately; otherwise it sits in the
// torn-tail window until the next flush tick. A nil log (journaling off)
// records nothing and returns 0.
func (l *Log) Append(op Op, c *function.Call, readyAt sim.Time) uint64 {
	if l == nil {
		return 0
	}
	l.seq++
	prev, chained := l.last[c.ID]
	if !chained {
		prev = -1
	}
	l.last[c.ID] = int32(len(l.entries))
	if op.Terminal() {
		l.settled = append(l.settled, c.ID)
	}
	l.entries = append(l.entries, Entry{
		Seq:     l.seq,
		At:      l.engine.Now(),
		Op:      op,
		prev:    prev,
		Call:    c,
		ReadyAt: readyAt,
	})
	l.appends++
	if l.flushLag <= 0 {
		// No flush tick runs, so a synchronous log compacts here.
		l.synced = len(l.entries)
		if l.Len() > l.compactAt {
			l.compact()
		}
	}
	return l.seq
}

func (l *Log) flush() {
	l.synced = len(l.entries)
	if l.Len() > l.compactAt {
		l.compact()
	}
}

// Sync forces the horizon to the end of the log (graceful shutdown).
func (l *Log) Sync() {
	l.synced = len(l.entries)
}

// squeezeShare is the dead share of the slots, one in squeezeShare, past
// which compaction reclaims them. One pass over the slots then pays for at
// least an eighth of them, so reclaiming costs O(1) amortised per record
// ever appended, and after a compaction the slots are at most 8/7 of the
// retained records. (At a quarter the slice grows one step further than
// the retained records need: 8% more bytes allocated per call on a retry
// storm, for no measurable time.)
const squeezeShare = 8

// compact drops every record of calls whose newest record is a durable
// terminal: nothing in the log can resurrect them, so their history is
// dead weight. A terminal followed by a later record does not settle its
// call — a drain that extracts a call (ack) and has to restore it to the
// same shard (enqueue) leaves one, and the call is live; its chain waits
// for its eventual settlement, and replay's last-record-wins already
// ignores the stale terminal. compact runs only where the whole log is
// durable, after a flush or a synchronous append — a call with an
// unsynced terminal must keep its records, because a crash would tear
// the terminal off and replay from what remains. The cost is the chains of the calls settled since
// the last compaction, not the log.
func (l *Log) compact() {
	for _, id := range l.settled {
		i, ok := l.last[id]
		if !ok || !l.entries[i].Op.Terminal() {
			continue // settled twice since the last compaction, or live again
		}
		delete(l.last, id)
		for i >= 0 {
			if l.dead == 0 || int(i) < l.firstDead {
				l.firstDead = int(i)
			}
			e := &l.entries[i]
			i = e.prev
			*e = Entry{} // dropped calls are collectable from here on
			l.dead++
		}
	}
	l.settled = l.settled[:0]
	if l.dead*squeezeShare > len(l.entries) {
		l.squeeze()
	}
}

// squeeze reclaims the dead slots in one forward pass from the first of
// them, renumbering the chains as the retained records move down. The
// records of long-held calls gather at the front of a log and stay put.
func (l *Log) squeeze() {
	if l.dead == 0 {
		return
	}
	first := l.firstDead
	if cap(l.remap) < len(l.entries)-first {
		l.remap = make([]int32, cap(l.entries)) // regrows only when entries has
	}
	remap := l.remap[:len(l.entries)-first] // new slot of old slot first+k
	kept := l.entries[:first]
	for i, e := range l.entries[first:] {
		if e.Call == nil {
			continue
		}
		remap[i] = int32(len(kept))
		if int(e.prev) >= first {
			e.prev = remap[int(e.prev)-first]
		}
		kept = append(kept, e)
	}
	clear(l.entries[len(kept):])
	l.entries = kept
	l.synced -= l.dead
	l.dead = 0
	for id, i := range l.last {
		if int(i) >= first {
			l.last[id] = remap[int(i)-first]
		}
	}
}

// Crash truncates the log to its durable prefix and returns the torn
// tail (most-recent last) for the owner to classify: calls whose only
// records were torn are lost; calls with durable records merely lose
// progress. The flush tick keeps running: records appended after the
// crash are flushed and compacted as before.
func (l *Log) Crash() []Entry {
	torn := append([]Entry(nil), l.entries[l.synced:]...)
	// Rewind the chains newest-first, so each torn call ends on its last
	// durable record; torn terminals are the tail of the settled list.
	for i := len(torn) - 1; i >= 0; i-- {
		e := torn[i]
		if e.prev >= 0 {
			l.last[e.Call.ID] = e.prev
		} else {
			delete(l.last, e.Call.ID)
		}
		if e.Op.Terminal() {
			l.settled = l.settled[:len(l.settled)-1]
		}
	}
	clear(l.entries[l.synced:])
	l.entries = l.entries[:l.synced]
	return torn
}

// Len returns the number of retained records.
func (l *Log) Len() int { return len(l.entries) - l.dead }

// Synced returns the durable prefix length.
func (l *Log) Synced() int { return l.synced - l.dead }

// Unsynced returns the torn-tail window size — records a crash right now
// would lose.
func (l *Log) Unsynced() int { return len(l.entries) - l.synced }

// Appends returns the lifetime append count.
func (l *Log) Appends() uint64 { return l.appends }

// Entries exposes the retained records (crash-time classification).
func (l *Log) Entries() []Entry {
	l.squeeze()
	return l.entries
}

// Replay returns a bounded iterator over the durable prefix as it exists
// now. The iterator holds its own snapshot: appends, flushes and
// compactions after Replay is called do not disturb it — recovery
// replays the log as of the crash, not a moving target.
func (l *Log) Replay() *Replayer {
	l.squeeze()
	return &Replayer{entries: append([]Entry(nil), l.entries[:l.synced]...)}
}

// Replayer iterates a durable-prefix snapshot in append order, in
// caller-sized batches, so a recovering owner can spread replay work
// over virtual time instead of rebuilding in one instant.
type Replayer struct {
	entries []Entry
	pos     int
}

// Next returns up to max entries (nil when exhausted).
func (r *Replayer) Next(max int) []Entry {
	if r.pos >= len(r.entries) || max <= 0 {
		return nil
	}
	n := min(len(r.entries)-r.pos, max)
	batch := r.entries[r.pos : r.pos+n]
	r.pos += n
	return batch
}

// Remaining returns how many entries are left to visit.
func (r *Replayer) Remaining() int { return len(r.entries) - r.pos }

// Total returns the iterator's full span (for replay-delay sizing).
func (r *Replayer) Total() int { return len(r.entries) }
