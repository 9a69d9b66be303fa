// Package durableq implements XFaaS's only stateful component (paper
// §4.3): sharded durable queues that persist function calls until they
// complete. Each shard keeps a separate queue per function ordered by the
// call's execution start time. A call offered to a scheduler is leased:
// it will not be offered to another scheduler unless the first fails to
// execute it (NACK or lease timeout), giving at-least-once semantics.
package durableq

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/journal"
	"xfaas/internal/lifecycle"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

// ShardID identifies a DurableQ shard within a region.
type ShardID struct {
	Region cluster.RegionID
	Index  int
}

func (s ShardID) String() string { return fmt.Sprintf("dq-%d-%d", s.Region, s.Index) }

// DeadReason classifies why a call was dead-lettered. The reasons are
// disjoint: every dead-lettered call has exactly one, and the per-reason
// counters sum to DeadLetters.
type DeadReason int

const (
	// ReasonExhausted: the retry policy's MaxAttempts ran out.
	ReasonExhausted DeadReason = iota
	// ReasonExpired: the call passed its absolute deadline and was swept
	// before occupying a worker.
	ReasonExpired
	// ReasonBudget: the function's retry budget was empty at redelivery.
	ReasonBudget
	// ReasonShed: queue-delay shedding dropped the call under overload.
	ReasonShed
)

var reasonNames = [...]string{"exhausted", "expired", "budget", "shed"}

func (r DeadReason) String() string {
	if r >= 0 && int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// funcQueue is one function's queue, its name, its slot in Shard.byName
// and in the due bitset, and filed, the instant of its live filing in
// Shard.soon (never when it has none).
type funcQueue struct {
	h     callHeap
	name  string
	idx   int
	filed sim.Time
}

// never is the wake time of an empty queue.
const never = sim.Time(math.MaxInt64)

// Shard is one durable queue shard.
type Shard struct {
	ID     ShardID
	engine *sim.Engine
	// src seeds the retry-backoff jitter; nil disables jitter (retries
	// use the fixed per-function backoff, mainly unit-test rigs).
	src *rng.Source
	// LeaseTimeout bounds how long a scheduler may hold a call without
	// ACK/NACK before it is redelivered.
	LeaseTimeout time.Duration
	// BackoffCap bounds the exponential retry backoff (full jitter under
	// the cap; see backoff).
	BackoffCap time.Duration
	// ReplayBase, ReplayPerEntry and ReplayBatch shape crash recovery:
	// a restarting shard pays ReplayBase, then replays its journal in
	// ReplayBatch-record steps costing ReplayPerEntry each.
	ReplayBase     time.Duration
	ReplayPerEntry time.Duration
	ReplayBatch    int

	// BudgetEnabled turns on the per-function retry budget: redelivery
	// spends one token, a first-attempt ack earns BudgetRatio tokens, and
	// an empty bucket dead-letters the call (ReasonBudget) instead of
	// requeueing it, bounding retry amplification to 1 + BudgetRatio.
	BudgetEnabled bool
	// BudgetRatio (β) is the tokens earned per first-attempt success.
	BudgetRatio float64
	// BudgetBurst is a function's initial token balance on this shard.
	BudgetBurst float64
	// SweepExpired dead-letters calls past their absolute deadline
	// (ReasonExpired) at poll and redelivery time instead of offering
	// doomed work to schedulers.
	SweepExpired bool

	queues map[string]*funcQueue // requeue's lookup by name
	byName []*funcQueue          // the queues in name order: the deterministic polling order
	// Bit i of due is set when a poll would act on byName[i]: its head's
	// wake has passed, or a tombstone stands at its head. A queue whose
	// bit is clear has a filing in soon (its head then, keyed by that
	// head's wake) at or before its head's wake, and a poll first sets the
	// bits of the filings that have come due (see refresh), so it opens
	// only the queues it acts on.
	due  []uint64
	soon callHeap
	// later holds each entry queued while still deferred, gone each entry
	// that left its queue while still deferred (see PendingReady).
	later, gone callHeap
	cursor      int // round-robin position for fairness across functions
	leases      map[uint64]*lease
	// sessions are anon, forgotten, then one per live holder that polled
	// the shard; expiry is armed at their first key (see first).
	sessions  []*session
	expiry    *sim.Alarm
	freeLease []*lease
	// down marks an unavailability window (storage maintenance, network
	// isolation): the shard's durable state survives, but no request —
	// enqueue, poll, ack, nack, renew — succeeds until it returns.
	down bool

	// jrn is the shard's write-ahead log (nil = journaling off, the
	// default: the shard is pure in-memory and a crash loses everything).
	jrn *journal.Log
	// crashed marks the window between Crash and the end of Restart's
	// replay; the shard is down throughout.
	crashed bool
	// replaying marks a Restart whose replay has not finished; a second
	// Restart in that window is a no-op.
	replaying   bool
	replayer    *journal.Replayer
	replayLast  map[uint64]journal.Entry // last durable record per call
	replayTimer sim.Timer
	// crashHeld counts calls that survive in the durable journal but are
	// not yet requeued — physically nowhere, still owed to the
	// conservation closure (see CrashHeld).
	crashHeld int
	// recovered tracks replay-requeued calls still waiting in a queue; a
	// late Ack from a pre-crash execution settles them by tombstoning
	// the queued duplicate instead of letting it run again.
	recovered map[uint64]*function.Call
	// tombstones marks queued entries to discard lazily at poll time
	// (heaps do not support removal).
	tombstones map[uint64]bool
	// budgets is each function's retry bucket (created on first use, full
	// to BudgetBurst). Accessed by key only — never iterated — so
	// determinism is unaffected.
	budgets map[string]*budget

	// Metrics.
	Enqueued    stats.Counter
	Acked       stats.Counter
	Nacked      stats.Counter
	Redelivered stats.Counter
	DeadLetters stats.Counter
	Expired     stats.Counter
	// Per-reason dead-letter dispositions; they sum to DeadLetters.
	DeadExhausted stats.Counter
	DeadExpired   stats.Counter
	DeadBudget    stats.Counter
	DeadShed      stats.Counter
	// FirstAcks counts first-attempt successes (the budget's earn events);
	// BudgetSpent counts redeliveries that consumed a retry token.
	FirstAcks   stats.Counter
	BudgetSpent stats.Counter
	// LostOnCrash counts calls destroyed by Crash (torn journal tail, or
	// everything when unjournaled); Replayed counts calls requeued by
	// journal replay; DupSuppressed counts queued duplicates settled by a
	// late ack.
	LostOnCrash   stats.Counter
	Replayed      stats.Counter
	DupSuppressed stats.Counter
	// Regional drain accounting: Released counts leases gracefully
	// dissolved back to queued (no retry mechanics), DrainedOut calls
	// migrated to a peer shard, DrainedIn calls adopted from one.
	Released   stats.Counter
	DrainedOut stats.Counter
	DrainedIn  stats.Counter
	pending    int

	// Obs, when set, hears every durable state transition of a call and
	// the shard's control events (crash, replay, budget flips).
	Obs *lifecycle.Spine
}

// The retry budget every shard starts with: β (at most 20% extra attempts)
// and a per-function burst so cold functions can retry before earning
// anything. Exported for the amplification bounds computed elsewhere.
const (
	DefaultBudgetRatio float64 = 0.2
	DefaultBudgetBurst float64 = 10
)

// NewShard returns an empty shard with a 5-minute lease timeout and the
// recovery and retry-budget defaults below. src seeds retry-backoff
// jitter and may be nil (fixed backoff).
func NewShard(id ShardID, engine *sim.Engine, src *rng.Source) *Shard {
	s := &Shard{
		ID:             id,
		engine:         engine,
		src:            src,
		LeaseTimeout:   5 * time.Minute,
		BackoffCap:     5 * time.Minute,
		ReplayBase:     2 * time.Second,
		ReplayPerEntry: 200 * time.Microsecond,
		ReplayBatch:    256,
		BudgetRatio:    DefaultBudgetRatio,
		BudgetBurst:    DefaultBudgetBurst,
		queues:         make(map[string]*funcQueue),
		leases:         make(map[uint64]*lease),
		budgets:        make(map[string]*budget),
	}
	s.sessions = []*session{anon: {sh: s}, forgotten: {sh: s}}
	s.expiry = engine.NewAlarm(s.fire)
	return s
}

// EnableJournal attaches a write-ahead log with the given sync-horizon
// lag, making the shard crash-recoverable: Crash loses only the
// unflushed tail, Restart replays the durable prefix.
func (s *Shard) EnableJournal(flushLag time.Duration) {
	s.jrn = journal.New(s.engine, flushLag)
}

// Journal exposes the shard's log (nil when journaling is off).
func (s *Shard) Journal() *journal.Log { return s.jrn }

// SetDown marks the shard unavailable (true) or available again (false).
// Durable state — queued calls and leases — survives the window; leases
// keep running out, so a lease can expire during the outage and the
// call redelivers once the shard returns (at-least-once, possibly
// duplicating work whose Ack was lost to the outage). A crashed shard
// cannot be brought back this way: only Restart's replay returns it.
func (s *Shard) SetDown(down bool) {
	if !down && s.crashed {
		return
	}
	s.down = down
}

// IsDown reports whether the shard is in an unavailability window.
func (s *Shard) IsDown() bool { return s.down }

// Enqueue persists a call, reporting acceptance (false while the shard is
// unavailable — the caller must pick another shard). The call becomes
// eligible for delivery once virtual time reaches its StartAfter.
func (s *Shard) Enqueue(c *function.Call) bool {
	if s.down {
		return false
	}
	c.State = function.StateQueued
	c.QueuedAt = s.engine.Now()
	s.requeue(c, c.StartAfter)
	s.Enqueued.Inc()
	s.jrn.Append(journal.OpEnqueue, c, c.StartAfter)
	s.Obs.Emit(c, trace.KindEnqueue, trace.Ref(s.ID.Region, s.ID.Index))
	return true
}

// requeue places a call into its per-function heap, creating the heap on
// first sight of the function. Shared by Enqueue, retry redelivery, and
// crash replay.
func (s *Shard) requeue(c *function.Call, readyAt sim.Time) {
	q, ok := s.queues[c.Spec.Name]
	if !ok {
		q = s.addQueue(c.Spec.Name)
	}
	it := queued{call: c, readyAt: readyAt}
	q.h.push(it)
	if q.h[0].call == c {
		s.refresh(q)
	}
	s.later.track(it, s.engine.Now())
	s.pending++
}

// addQueue creates the queue of a function seen for the first time,
// inserting it at its sorted position in byName and the due bitset,
// whose bits from there on move up one.
func (s *Shard) addQueue(name string) *funcQueue {
	i, _ := slices.BinarySearchFunc(s.byName, name, func(q *funcQueue, name string) int {
		return cmp.Compare(q.name, name)
	})
	q := &funcQueue{name: name, idx: i, filed: never}
	s.queues[name] = q
	s.byName = slices.Insert(s.byName, i, q)
	for _, after := range s.byName[i+1:] {
		after.idx++
	}
	if len(s.byName) > 64*len(s.due) {
		s.due = append(s.due, 0)
	}
	w, low := i>>6, uint64(1)<<(i&63)-1
	for k := len(s.due) - 1; k > w; k-- {
		s.due[k] = s.due[k]<<1 | s.due[k-1]>>63
	}
	s.due[w] = s.due[w]&low | s.due[w]&^low<<1
	return q
}

// refresh re-reads q's head after it changed: the bit is set if a poll
// would act on the head now, else cleared, with the head's wake filed in
// soon unless an earlier filing of q stands (its promotion refreshes q).
func (s *Shard) refresh(q *funcQueue) {
	w, bit := q.h.wake(), uint64(1)<<(q.idx&63)
	if w <= s.engine.Now() || len(s.tombstones) > 0 && len(q.h) > 0 && s.tombstones[q.h[0].call.ID] {
		s.due[q.idx>>6] |= bit
		return
	}
	s.due[q.idx>>6] &^= bit
	if w < q.filed {
		q.filed = w
		s.soon.push(queued{call: q.h[0].call, readyAt: w})
	}
}

// nextDue returns the first index in [i, end) whose due bit is set, or end.
func (s *Shard) nextDue(i, end int) int {
	for i < end {
		if w := s.due[i>>6] >> (i & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), end)
		}
		i = (i | 63) + 1
	}
	return end
}

// Pending returns the number of calls stored and not currently leased.
func (s *Shard) Pending() int { return s.pending }

// Leased returns the number of outstanding leases.
func (s *Shard) Leased() int { return len(s.leases) }

// PendingReady returns how many queued entries are ready (start time
// passed) now, tombstoned duplicates included: the queues hold pending
// live entries and one per tombstone, and those still deferred are
// later's entries yet to pass less gone's. Each entry is filed once and
// dropped once, so a read costs what became ready since the last one, not
// what is held.
func (s *Shard) PendingReady() int {
	now := s.engine.Now()
	s.later.drop(now)
	s.gone.drop(now)
	return s.pending + len(s.tombstones) - len(s.later) + len(s.gone)
}

// Poll offers up to max ready calls to the caller (a scheduler), leasing
// each. Functions are served round-robin so one hot function cannot
// starve the rest of a shard. If filter is non-nil, only calls it accepts
// are offered (used for function-subset pulls); rejected calls stay
// queued.
func (s *Shard) Poll(max int, filter func(*function.Call) bool) []*function.Call {
	return s.PollInto(nil, max, filter)
}

// PollInto is Poll appending into dst, so a caller polling every tick
// can reuse one scratch buffer instead of allocating a result slice per
// shard per tick.
func (s *Shard) PollInto(dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	return s.PollAs(nil, dst, max, filter)
}

// PollAs is PollInto with every lease granted to h.
func (s *Shard) PollAs(h *Holder, dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	n := len(s.byName)
	if s.down || max <= 0 || n == 0 {
		return dst
	}
	ss := s.sessionOf(h)
	now := s.engine.Now()
	for len(s.soon) > 0 && s.soon[0].readyAt <= now {
		f := s.soon.pop()
		if q := s.queues[f.call.Spec.Name]; q.filed == f.readyAt {
			q.filed = never
			s.refresh(q)
		}
	}
	taken := 0
	// The due queues from the cursor on, then from the first to the
	// cursor. A queue whose bit is clear has a head that is neither ready
	// nor expired nor tombstoned, so opening it would change nothing.
	for _, r := range [2][2]int{{s.cursor, n}, {0, s.cursor}} {
		for i := s.nextDue(r[0], r[1]); i < r[1] && taken < max; i = s.nextDue(i+1, r[1]) {
			q := &s.byName[i].h
			for q.Len() > 0 && taken < max {
				top := (*q)[0]
				if len(s.tombstones) > 0 && s.tombstones[top.call.ID] {
					// Duplicate settled by a late ack after crash replay;
					// discard lazily (pending was decremented at suppression).
					delete(s.tombstones, top.call.ID)
					s.gone.track(q.pop(), now)
					continue
				}
				if s.SweepExpired && top.call.Expired(now) {
					// Doomed work: past its deadline, sweep to dead-letter
					// instead of offering it. Continue — an expired head must
					// not hide ready live calls behind it.
					s.gone.track(q.pop(), now)
					s.pending--
					if len(s.recovered) > 0 {
						delete(s.recovered, top.call.ID)
					}
					s.deadLetter(top.call, ReasonExpired)
					continue
				}
				if top.readyAt > now {
					break
				}
				if filter != nil && !filter(top.call) {
					break
				}
				q.pop()
				s.pending--
				dst = append(dst, s.offer(top.call, ss))
				taken++
			}
			s.refresh(s.byName[i])
		}
	}
	if s.cursor++; s.cursor == n {
		s.cursor = 0
	}
	return dst
}

func (s *Shard) offer(c *function.Call, ss *session) *function.Call {
	c.State = function.StateLeased
	c.Attempt++
	c.Lessor.Region, c.Lessor.Index = int32(s.ID.Region), int32(s.ID.Index)
	if len(s.recovered) > 0 {
		// Once a replayed call is re-delivered, a late pre-crash ack can
		// no longer suppress it — the duplicate execution is in flight.
		delete(s.recovered, c.ID)
	}
	s.jrn.Append(journal.OpLease, c, 0)
	s.Obs.Emit(c, trace.KindLease, int64(c.Attempt))
	var l *lease
	if n := len(s.freeLease); n > 0 {
		l, s.freeLease = s.freeLease[n-1], s.freeLease[:n-1]
	} else {
		l = &lease{}
	}
	l.call = c
	s.leases[c.ID] = l
	s.grant(ss, l)
	return c
}

// lease records one outstanding delivery. (at, seq) is the ordering key
// its own engine timer would have had: the deadline, and the sequence
// number reserved when it was granted or ranked. Only a shard's first
// key is on the engine, so a held lease costs the event heap nothing.
type lease struct {
	call       *function.Call
	ss         *session
	at         sim.Time
	seq        uint64
	prev, next *lease
}

func (l *lease) before(m *lease) bool { return l.at < m.at || l.at == m.at && l.seq < m.seq }

// session is the leases one holder holds on one shard, as a Chubby
// session owns its ephemeral nodes. The block, head up to fresh, is what
// the holder's last round renewed here: the round stamped its deadline at
// and the base b of the sequence numbers it reserved, and a block lease's
// key is (at, b + rank), rank its place by call ID among all the round
// renewed. From fresh on, leases carry their own key (seq ≥ b) in key
// order, which is grant order unless LeaseTimeout was shortened.
type session struct {
	h                 *Holder // nil: no round renews the session
	sh                *Shard
	head, tail, fresh *lease
	n                 int
	at                sim.Time
	b                 uint64
}

// A shard's first two sessions have no holder: anon holds the leases of
// Poll and PollInto, which Renew extends one at a time, and forgotten the
// leases a holder let go of, which run out at the key they had.
const anon, forgotten = 0, 1

// Holder is a lessee: a scheduler process polls as one (PollAs) and
// renews all it holds in one round (Renew). Only a lease's holder renews
// it; a restarted process is a new Holder.
//
// Per-lease renewal gives each lease the next sequence number in call-ID
// order across the holder's shards that are up. A round reserves that
// block of numbers at once and stamps it on the sessions, touching no
// lease. The ranks are materialised only when they count: a shard's
// alarm reaches the block's first key (at, b), or a lease leaves for
// forgotten.
type Holder struct {
	engine   *sim.Engine
	sessions []*session
	ranked   []*lease // materialize's scratch
}

// NewHolder returns a holder polling shards that run on engine.
func NewHolder(engine *sim.Engine) *Holder { return &Holder{engine: engine} }

// Renew is the holder's renewal round: every lease it holds on a shard
// that is up gets another LeaseTimeout. When its shards' timeouts differ,
// the round's deadlines do too, and the ranks are materialised at once.
func (h *Holder) Renew() {
	n := 0
	for _, ss := range h.sessions {
		if !ss.sh.down {
			n += ss.n
		}
	}
	b, at, mixed := h.engine.ReserveSeqs(n), sim.Time(-1), false
	for _, ss := range h.sessions {
		if !ss.sh.down && ss.n > 0 {
			ss.at, ss.b, ss.fresh = h.engine.Now()+max(ss.sh.LeaseTimeout, 0), b, nil
			mixed, at = mixed || at >= 0 && ss.at != at, ss.at
			ss.sh.armExpiry()
		}
	}
	if mixed {
		h.materialize(b)
	}
}

// Forget ends h's claim on its lease on id at sh — a holder whose settle
// a down shard refused lets the call go — so no round renews it again.
func (h *Holder) Forget(sh *Shard, id uint64) {
	if l := sh.leases[id]; l != nil && l.ss.h == h {
		if l.seq < l.ss.b {
			h.materialize(l.ss.b)
		}
		sh.unlink(l)
		sh.link(sh.sessions[forgotten], l)
	}
}

// Release ends h, as its process's crash does: every lease it holds
// keeps its key and runs out unrenewed, and its sessions close.
func (h *Holder) Release() {
	for _, ss := range h.sessions {
		for ss.head != nil {
			h.Forget(ss.sh, ss.head.call.ID)
		}
		ss.sh.sessions = slices.DeleteFunc(ss.sh.sessions, func(o *session) bool { return o == ss })
	}
	h.sessions = nil
}

// materialize gives each lease of the block based at b its own key,
// ranked by call ID across h's sessions, relinks each session in key
// order and returns the lease ranked first. Ranks count the leases
// still in the block: the rest left with their keys, and no other event
// holds a number of the block, so the global order is unchanged.
func (h *Holder) materialize(b uint64) *lease {
	ls := h.ranked[:0]
	for _, ss := range h.sessions {
		for l := ss.head; ss.b == b && l != ss.fresh; l = l.next {
			ls = append(ls, l)
		}
	}
	slices.SortFunc(ls, func(x, y *lease) int { return cmp.Compare(x.call.ID, y.call.ID) })
	for i, l := range ls {
		l.at, l.seq = l.ss.at, b+uint64(i)
	}
	for _, ss := range h.sessions {
		if ss.b != b || ss.head == ss.fresh {
			continue
		}
		// The ranked leases, then the own-key run, each linked behind the
		// last that sorts before it.
		own := ss.fresh
		ss.head, ss.tail, ss.fresh, ss.n = nil, nil, nil, 0
		for _, l := range ls {
			if l.ss == ss {
				ss.sh.link(ss, l)
			}
		}
		for own != nil {
			next := own.next
			ss.sh.link(ss, own)
			own = next
		}
	}
	first := ls[0]
	clear(ls)
	h.ranked = ls[:0]
	return first
}

// sessionOf returns h's session on s, opening it on first use.
func (s *Shard) sessionOf(h *Holder) *session {
	if h == nil {
		return s.sessions[anon]
	}
	for _, ss := range s.sessions[forgotten+1:] {
		if ss.h == h {
			return ss
		}
	}
	ss := &session{h: h, sh: s}
	s.sessions = append(s.sessions, ss)
	h.sessions = append(h.sessions, ss)
	return ss
}

// grant starts (or, for Renew, restarts) l's LeaseTimeout in ss with the
// key a timer scheduled now would get.
func (s *Shard) grant(ss *session, l *lease) {
	l.at, l.seq = s.engine.Now()+max(s.LeaseTimeout, 0), s.engine.ReserveSeq()
	s.link(ss, l)
}

// link files l, which carries its own key, into ss behind the last
// own-key lease that sorts before it: the tail, for a granted key under
// one timeout.
func (s *Shard) link(ss *session, l *lease) {
	l.ss = ss
	p := ss.tail
	for p != nil && p.seq >= ss.b && l.before(p) {
		p = p.prev
	}
	l.prev = p
	if p == nil {
		l.next, ss.head = ss.head, l
	} else {
		l.next, p.next = p.next, l
	}
	if l.next == nil {
		ss.tail = l
	} else {
		l.next.prev = l
	}
	ss.n++
	if ss.fresh == l.next {
		ss.fresh = l
		s.armExpiry()
	}
}

// unlink takes l out of its session, re-arming the shard's alarm when l
// was the first own-key lease or the block's last.
func (s *Shard) unlink(l *lease) {
	ss := l.ss
	first := ss.fresh == l
	if first {
		ss.fresh = l.next
	}
	if l.prev == nil {
		ss.head = l.next
	} else {
		l.prev.next = l.next
	}
	if l.next == nil {
		ss.tail = l.prev
	} else {
		l.next.prev = l.prev
	}
	l.prev, l.next, l.ss = nil, nil, nil
	ss.n--
	if first || l.seq < ss.b && ss.head == ss.fresh {
		s.armExpiry()
	}
}

// first returns the session holding the shard's first key, (at, seq):
// its first own-key lease's, or when block is set its block's (at, b).
func (s *Shard) first() (m *session, block bool, at sim.Time, seq uint64) {
	for _, ss := range s.sessions {
		if l := ss.fresh; l != nil && (m == nil || l.at < at || l.at == at && l.seq < seq) {
			m, block, at, seq = ss, false, l.at, l.seq
		}
		if ss.head != ss.fresh && (m == nil || ss.at < at || ss.at == at && ss.b < seq) {
			m, block, at, seq = ss, true, ss.at, ss.b
		}
	}
	return m, block, at, seq
}

// armExpiry keys the shard's alarm to its first key, so the expiry fires
// where that lease's own timer would have. A block's first key belongs
// to the lease its holder ranks first; every shard of the block arms
// there, and the first to fire materialises the block (see fire).
func (s *Shard) armExpiry() {
	if ss, _, at, seq := s.first(); ss != nil {
		s.expiry.Set(at, seq)
	} else {
		s.expiry.Stop()
	}
}

// fire is the shard's alarm: the lease at its first key runs out. For a
// block that is the lease the holder ranks first, on whichever shard.
func (s *Shard) fire() {
	ss, block, _, _ := s.first()
	l := ss.fresh
	if block {
		l = ss.h.materialize(ss.b)
	}
	l.ss.sh.expire(l)
}

// settle dissolves the lease held on id and returns its call, or nil if
// no lease is held.
func (s *Shard) settle(id uint64) *function.Call {
	l, ok := s.leases[id]
	if !ok {
		return nil
	}
	delete(s.leases, id)
	s.unlink(l)
	c := l.call
	l.call = nil
	s.freeLease = append(s.freeLease, l)
	return c
}

// take settles id for its holder: nil while the shard is down, or when
// no lease is held.
func (s *Shard) take(id uint64) *function.Call {
	if s.down {
		return nil
	}
	return s.settle(id)
}

// expire runs l out unsettled: its call is redelivered (or dropped, by
// the retry policy).
func (s *Shard) expire(l *lease) {
	c := s.settle(l.call.ID)
	s.Expired.Inc()
	s.Obs.Emit(c, trace.KindLeaseExpired, 0)
	s.retryOrDrop(c, 0)
}

// Renew extends a lease granted by Poll or PollInto by another
// LeaseTimeout, reporting whether it was still held. A Holder's leases
// are renewed by its rounds only.
func (s *Shard) Renew(id uint64) bool {
	l, ok := s.leases[id]
	if s.down || !ok || l.ss != s.sessions[anon] {
		return false
	}
	s.unlink(l)
	s.grant(s.sessions[anon], l)
	return true
}

// Ack confirms successful execution; the call is permanently removed. It
// reports whether the lease was still held. After a crash replay, an ack
// for an execution that started before the crash finds no lease but a
// replay-requeued duplicate — the duplicate is settled in place instead
// of being allowed to run again (duplicate suppression).
func (s *Shard) Ack(id uint64) bool {
	c := s.take(id)
	if c == nil {
		return !s.down && s.suppressDuplicate(id)
	}
	c.State = function.StateSucceeded
	s.jrn.Append(journal.OpAck, c, 0)
	s.Obs.Emit(c, trace.KindAck, 0)
	s.Acked.Inc()
	if c.Attempt == 1 {
		s.FirstAcks.Inc()
		s.earnBudget(c.Spec.Name)
	}
	return true
}

// suppressDuplicate settles a replay-requeued call when its pre-crash
// execution acks late: the queued duplicate is tombstoned (discarded at
// poll time) and the call counts as acked, not re-executed.
func (s *Shard) suppressDuplicate(id uint64) bool {
	c, ok := s.recovered[id]
	if !ok {
		return false
	}
	delete(s.recovered, id)
	if s.tombstones == nil {
		s.tombstones = make(map[uint64]bool)
	}
	s.tombstones[id] = true
	s.refresh(s.queues[c.Spec.Name])
	s.pending--
	c.State = function.StateSucceeded
	s.jrn.Append(journal.OpAck, c, 0)
	s.DupSuppressed.Inc()
	s.Acked.Inc()
	if c.Attempt == 1 {
		s.FirstAcks.Inc()
		s.earnBudget(c.Spec.Name)
	}
	s.Obs.Emit(c, trace.KindAck, 1)
	return true
}

// Nack reports failed execution; the call is redelivered after the
// function's retry backoff, or dead-lettered once attempts are exhausted.
func (s *Shard) Nack(id uint64) bool {
	return s.nackWith(id, 0, false)
}

// NackBase is Nack with an explicit retry backoff base — the scheduling
// policy's retry-placement hook. The jitter draw, budget spend, and all
// other redelivery mechanics are unchanged.
func (s *Shard) NackBase(id uint64, base time.Duration) bool {
	return s.nackWith(id, base, true)
}

func (s *Shard) nackWith(id uint64, base time.Duration, override bool) bool {
	c := s.take(id)
	if c == nil {
		return false
	}
	s.Nacked.Inc()
	s.Obs.Emit(c, trace.KindNack, 0)
	if !override {
		base = c.Spec.Retry.Backoff
	}
	s.retryOrDrop(c, base)
	return true
}

func (s *Shard) retryOrDrop(c *function.Call, base time.Duration) {
	if c.Attempt >= c.Spec.Retry.MaxAttempts {
		s.deadLetter(c, ReasonExhausted)
		return
	}
	if s.SweepExpired && c.Expired(s.engine.Now()) {
		// A redelivery could never finish before the deadline; settle now
		// instead of burning a worker on doomed work.
		s.deadLetter(c, ReasonExpired)
		return
	}
	if !s.spendBudget(c.Spec.Name) {
		s.deadLetter(c, ReasonBudget)
		return
	}
	backoff := s.backoff(c, base)
	s.Redelivered.Inc()
	c.State = function.StateQueued
	readyAt := s.engine.Now() + backoff
	s.jrn.Append(journal.OpRetry, c, readyAt)
	s.Obs.Emit(c, trace.KindRetry, int64(backoff))
	s.requeue(c, readyAt)
}

// deadLetter terminally settles a call with an explicit disposition,
// shared by retry exhaustion, budget exhaustion, expiry sweeping, and
// scheduler-initiated shedding. Every path journals OpDeadLetter (a
// terminal record, so crash replay never resurrects the call), bumps the
// aggregate and per-reason counters, and feeds the matching trace kind
// and ledger hook.
func (s *Shard) deadLetter(c *function.Call, reason DeadReason) {
	c.State = function.StateFailed
	s.DeadLetters.Inc()
	s.jrn.Append(journal.OpDeadLetter, c, 0)
	switch reason {
	case ReasonExpired:
		s.DeadExpired.Inc()
		s.Obs.Emit(c, trace.KindExpired, int64(c.Attempt))
	case ReasonBudget:
		s.DeadBudget.Inc()
		s.Obs.Emit(c, trace.KindBudgetExhausted, int64(c.Attempt))
	case ReasonShed:
		s.DeadShed.Inc()
		s.Obs.Emit(c, trace.KindShed, int64(s.engine.Now()-c.QueuedAt))
	default:
		s.DeadExhausted.Inc()
		s.Obs.Emit(c, trace.KindDeadLetter, int64(c.Attempt))
	}
}

// Terminate settles a currently leased call to dead-letter with the given
// disposition — the scheduler's path for sweeping an expired call at
// dispatch time or shedding an over-delayed one. It reports whether the
// lease was still held.
func (s *Shard) Terminate(id uint64, reason DeadReason) bool {
	c := s.take(id)
	if c == nil {
		return false
	}
	s.deadLetter(c, reason)
	return true
}

// Release gracefully dissolves a held lease back into plain queued work —
// the regional-drain handback. Unlike Nack, the call's outcome is not a
// failure: no retry backoff, no redelivery accounting, no budget spend.
// The attempt counter is untouched (the next offer increments it, keeping
// the ledger's monotonicity), and the journal records an OpRetry so a
// crash mid-drain replays the call as queued. It reports whether the
// lease was still held.
func (s *Shard) Release(id uint64) bool {
	c := s.take(id)
	if c == nil {
		return false
	}
	s.Released.Inc()
	c.State = function.StateQueued
	readyAt := s.engine.Now()
	s.jrn.Append(journal.OpRetry, c, readyAt)
	s.Obs.Emit(c, trace.KindRelease, 0)
	s.requeue(c, readyAt)
	return true
}

// DrainExtract removes up to max queued (never leased) calls matching
// filter from this shard, appending them to dst, so a drain controller
// can migrate them to peer-region shards via AdoptDrained. Heaps are
// rebuilt in deterministic per-function order. Each extracted call gets a
// terminal journal record here — its durable home moves with it, so a
// crash replay of this shard must not resurrect a copy.
func (s *Shard) DrainExtract(dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	taken := 0
	var kept []queued
	for _, fq := range s.byName {
		if taken >= max {
			break
		}
		q := &fq.h
		if q.Len() == 0 {
			continue
		}
		kept = kept[:0]
		for q.Len() > 0 {
			it := q.pop()
			if len(s.tombstones) > 0 && s.tombstones[it.call.ID] {
				delete(s.tombstones, it.call.ID) // settled garbage; discard
				s.gone.track(it, s.engine.Now())
				continue
			}
			if taken < max && filter(it.call) {
				s.gone.track(it, s.engine.Now())
				if len(s.recovered) > 0 {
					delete(s.recovered, it.call.ID)
				}
				s.pending--
				s.DrainedOut.Inc()
				s.jrn.Append(journal.OpAck, it.call, 0)
				dst = append(dst, it.call)
				taken++
				continue
			}
			kept = append(kept, it)
		}
		for _, it := range kept {
			q.push(it)
		}
		s.refresh(fq)
	}
	return dst
}

// AdoptDrained persists a call migrated from a draining peer shard. The
// call is already durably owned by the platform (conservation keys on its
// submission region, which does not change), so no submit-side counters
// move — only the drain accounting and this shard's journal. Retry
// backoff in flight at extraction is dropped: the call becomes ready at
// max(now, StartAfter). It reports false while the shard is unavailable.
func (s *Shard) AdoptDrained(c *function.Call) bool {
	if s.down {
		return false
	}
	c.State = function.StateQueued
	readyAt := max(s.engine.Now(), c.StartAfter)
	s.requeue(c, readyAt)
	s.DrainedIn.Inc()
	s.jrn.Append(journal.OpEnqueue, c, readyAt)
	s.Obs.Emit(c, trace.KindDrainMigrated, trace.Ref(s.ID.Region, s.ID.Index))
	return true
}

// budget is one function's retry bucket. dry marks it empty, so
// "budget.exhausted" fires once per dry spell, not per rejected redelivery.
type budget struct {
	tokens float64
	dry    bool
}

// bucket returns a function's retry bucket, a new one full to BudgetBurst.
func (s *Shard) bucket(name string) *budget {
	b := s.budgets[name]
	if b == nil {
		b = &budget{tokens: s.BudgetBurst}
		s.budgets[name] = b
	}
	return b
}

// earnBudget credits a function's retry bucket for a first-attempt
// success. Buckets start at BudgetBurst and grow without cap: the
// amplification bound is global (spent ≤ β·firstAcks + burst), not
// windowed.
func (s *Shard) earnBudget(name string) {
	if !s.BudgetEnabled {
		return
	}
	b := s.bucket(name)
	b.tokens += s.BudgetRatio
	if b.tokens >= 1 && b.dry {
		b.dry = false
		s.Obs.Control("budget.recovered", fmt.Sprintf("%v %s", s.ID, name))
	}
}

// spendBudget consumes one retry token for a redelivery, reporting false
// when the bucket is empty (the caller dead-letters the call). With the
// budget disabled it always allows.
func (s *Shard) spendBudget(name string) bool {
	if !s.BudgetEnabled {
		return true
	}
	b := s.bucket(name)
	if b.tokens < 1 {
		if !b.dry {
			b.dry = true
			s.Obs.Control("budget.exhausted", fmt.Sprintf("%v %s", s.ID, name))
		}
		return false
	}
	b.tokens--
	s.BudgetSpent.Inc()
	return true
}

// BudgetBalance returns a function's current retry-token balance on this
// shard (the full burst when the function has never spent or earned).
func (s *Shard) BudgetBalance(name string) float64 {
	if b := s.budgets[name]; b != nil {
		return b.tokens
	}
	return s.BudgetBurst
}

// backoff turns the function's base retry delay into the actual
// redelivery delay: exponential in the attempt number, capped at
// BackoffCap, with full jitter — a uniform draw over [0, window) — so
// correlated failures (a shard outage expiring thousands of leases at
// once) do not redeliver as one synchronized thundering herd. With a nil
// rng source the base delay passes through unchanged (deterministic
// fixed-timing unit rigs).
func (s *Shard) backoff(c *function.Call, base time.Duration) time.Duration {
	if base <= 0 || s.src == nil {
		return base
	}
	window := base
	for i := 1; i < c.Attempt && window < s.BackoffCap; i++ {
		window <<= 1
	}
	window = min(window, s.BackoffCap)
	return time.Duration(s.src.Float64() * float64(window))
}

// CrashHeld returns the number of calls that survive only in the durable
// journal of a crashed shard: destroyed in memory, not yet requeued by
// replay. The conservation closure counts them as held — they are owed
// back to the platform and reappear during Restart's replay.
func (s *Shard) CrashHeld() int { return s.crashHeld }

// Recovering reports whether the shard is between Crash and the end of
// Restart's replay.
func (s *Shard) Recovering() bool { return s.crashed }

// Crash models a process/host failure: all in-memory state — queues,
// leases, the expiry alarm — is destroyed instantly. With journaling on, the
// unflushed journal tail is torn off and only calls whose every record
// sits in that tail are truly lost; everything with a durable record is
// recoverable by Restart. Without a journal every held call is lost. The
// shard stays down (rejecting all requests) until Restart completes.
func (s *Shard) Crash() {
	s.down = true
	s.crashed = true
	s.replayTimer.Stop()
	s.replayer = nil
	s.replaying = false

	// Snapshot what memory held, in deterministic order, before wiping.
	var held []*function.Call
	for _, q := range s.byName {
		for _, it := range q.h {
			if len(s.tombstones) > 0 && s.tombstones[it.call.ID] {
				continue // already settled; the heap entry is garbage
			}
			held = append(held, it.call)
		}
	}
	leaseIDs := make([]uint64, 0, len(s.leases))
	for id := range s.leases {
		leaseIDs = append(leaseIDs, id)
	}
	slices.Sort(leaseIDs)
	for _, id := range leaseIDs {
		held = append(held, s.leases[id].call)
	}

	s.queues = make(map[string]*funcQueue)
	s.byName, s.due, s.soon, s.later, s.gone = nil, nil, nil, nil, nil
	s.cursor = 0
	s.leases = make(map[uint64]*lease)
	for _, ss := range s.sessions {
		ss.head, ss.tail, ss.fresh, ss.n = nil, nil, nil, 0
	}
	s.expiry.Stop()
	s.freeLease = nil
	s.pending = 0
	s.recovered = nil
	s.tombstones = nil
	s.crashHeld = 0

	if s.jrn == nil {
		for _, c := range held {
			s.lose(c)
		}
		s.Obs.Control("durableq.crash",
			fmt.Sprintf("%v journal=off lost=%d", s.ID, len(held)))
		return
	}

	torn := s.jrn.Crash()
	s.replayLast = make(map[uint64]journal.Entry)
	for _, e := range s.jrn.Entries() {
		s.replayLast[e.Call.ID] = e // last durable record wins
	}
	for _, e := range s.replayLast {
		if !e.Op.Terminal() {
			s.crashHeld++
		}
	}
	// A held call is lost only if the journal cannot resurrect it: no
	// durable record, and no terminal record in the torn tail either (a
	// torn terminal means the call settled before the crash — the client
	// saw the ack — so it is not lost, merely unrecorded).
	tornTerminal := make(map[uint64]bool)
	for _, e := range torn {
		if e.Op.Terminal() {
			tornTerminal[e.Call.ID] = true
		}
	}
	lost := 0
	for _, c := range held {
		if _, durable := s.replayLast[c.ID]; durable || tornTerminal[c.ID] {
			continue
		}
		s.lose(c)
		lost++
	}
	s.Obs.Control("durableq.crash",
		fmt.Sprintf("%v journal=%d torn=%d lost=%d held=%d",
			s.ID, s.jrn.Len(), len(torn), lost, s.crashHeld))
}

// lose records the destruction of a call that can never be recovered.
func (s *Shard) lose(c *function.Call) {
	s.LostOnCrash.Inc()
	c.State = function.StateFailed
	s.Obs.Emit(c, trace.KindLost, 0)
}

// Restart brings a crashed shard back: after ReplayBase (process start,
// log open) it replays the journal's durable prefix in ReplayBatch-sized
// steps, each step costing ReplayPerEntry per record of virtual time.
// Non-terminal calls are requeued — orphaned leases immediately, since
// their outcome is unknown (the at-least-once redelivery) — and the
// shard accepts requests again once the last batch lands. Restarting a
// shard whose replay is already under way changes nothing.
func (s *Shard) Restart() {
	if !s.crashed {
		s.down = false
		return
	}
	if s.replaying {
		return
	}
	s.replaying = true
	if s.jrn == nil {
		// Stateless restart: the shard returns empty after the base delay.
		s.Obs.Control("durableq.replay-begin", fmt.Sprintf("%v entries=0", s.ID))
		s.replayTimer = s.engine.Schedule(s.ReplayBase, func() { s.finishReplay(0) })
		return
	}
	s.replayer = s.jrn.Replay()
	s.Obs.Control("durableq.replay-begin",
		fmt.Sprintf("%v entries=%d", s.ID, s.replayer.Total()))
	s.replayTimer = s.engine.Schedule(s.ReplayBase, s.replayStep)
}

func (s *Shard) replayStep() {
	batch := s.replayer.Next(s.ReplayBatch)
	for _, e := range batch {
		s.replayEntry(e)
	}
	cost := time.Duration(len(batch)) * s.ReplayPerEntry
	if s.replayer.Remaining() > 0 {
		s.replayTimer = s.engine.Schedule(cost, s.replayStep)
		return
	}
	replayed := s.replayer.Total()
	s.replayTimer = s.engine.Schedule(cost, func() { s.finishReplay(replayed) })
}

func (s *Shard) finishReplay(replayed int) {
	s.down = false
	s.crashed = false
	s.replaying = false
	s.crashHeld = 0
	s.replayer = nil
	s.replayLast = nil
	s.Obs.Control("durableq.replay-end",
		fmt.Sprintf("%v replayed=%d requeued=%d", s.ID, replayed, s.pending))
}

// replayEntry applies one durable journal record during recovery. Only a
// call's last record matters; terminal records settle the call (nothing
// to requeue), a Lease record means delivery was in flight with unknown
// outcome — requeue now for immediate redelivery — and Enqueue/Retry
// records requeue at their original ready time.
func (s *Shard) replayEntry(e journal.Entry) {
	last, ok := s.replayLast[e.Call.ID]
	if !ok || last.Seq != e.Seq || e.Op.Terminal() {
		return
	}
	c := e.Call
	readyAt := e.ReadyAt
	if e.Op == journal.OpLease {
		readyAt = s.engine.Now()
		s.Redelivered.Inc()
	}
	c.State = function.StateQueued
	s.requeue(c, readyAt)
	if s.recovered == nil {
		s.recovered = make(map[uint64]*function.Call)
	}
	s.recovered[c.ID] = c
	s.crashHeld--
	s.Replayed.Inc()
	s.Obs.Emit(c, trace.KindRecovered, int64(e.Op))
}

type queued struct {
	call    *function.Call
	readyAt sim.Time
}

// wake is the first instant a poll would act on this entry at the head of
// its queue: offer it once ready, or sweep it once expired (Expired is
// true strictly after the deadline). The deadline counts whether or not
// SweepExpired is set, so the index never depends on when the flag was.
func (it queued) wake() sim.Time {
	if d := it.call.Deadline; d > 0 && d < it.readyAt {
		return d + 1
	}
	return it.readyAt
}

// callHeap is a binary min-heap ordered by (readyAt, ID) for
// deterministic FIFO within a start time. The push/pop implementations
// mirror container/heap's sift algorithms exactly — same comparisons,
// same tie-breaks, so the pop order is bit-identical to the previous
// boxed implementation — without boxing every element in an interface.
type callHeap []queued

func (h callHeap) Len() int { return len(h) }

// wake is the head's wake time, never for an empty heap.
func (h callHeap) wake() sim.Time {
	if len(h) == 0 {
		return never
	}
	return h[0].wake()
}

func (h callHeap) less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].call.ID < h[j].call.ID
}

func (h *callHeap) push(v queued) {
	*h = append(*h, v)
	h.up(len(*h) - 1)
}

func (h *callHeap) pop() queued {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	h.down(0, n)
	v := q[n]
	q[n] = queued{}
	*h = q[:n]
	return v
}

func (h callHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h callHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// track files it in later or gone if it is still deferred, first dropping
// the entries that no longer are.
func (h *callHeap) track(it queued, now sim.Time) {
	if it.readyAt > now {
		h.drop(now)
		h.push(it)
	}
}

// drop pops the entries whose readyAt has passed.
func (h *callHeap) drop(now sim.Time) {
	for len(*h) > 0 && (*h)[0].readyAt <= now {
		h.pop()
	}
}
