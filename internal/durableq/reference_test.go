package durableq

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/journal"
	"xfaas/internal/lifecycle"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

// refShard is the shard as it was while every lease owned an engine timer
// and PollInto walked the function names, looking each queue up in the
// map: the code below is that Shard verbatim, renamed. It is the oracle
// the lease list, the expiry alarm and the wake index must match — offer
// for offer, counter for counter, event for event.

// lease records one outstanding delivery. Lease objects are pooled per
// shard: every offered call needs one, and recycling them (plus their
// prebuilt expiry closure) keeps the offer path allocation-free in
// steady state.
type refLease struct {
	call   *function.Call
	holder *Holder
	id     uint64
	timer  sim.Timer
	fire   func() // prebuilt s.expire(l) closure, built once per object
}

// Shard is one durable queue shard.
type refShard struct {
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

	queues    map[string]*callHeap
	funcNames []string // sorted; parallel index for deterministic polling
	cursor    int      // round-robin position for fairness across functions
	leases    map[uint64]*refLease
	freeLease []*refLease
	// down marks an unavailability window (storage maintenance, network
	// isolation): the shard's durable state survives, but no request —
	// enqueue, poll, ack, nack, renew — succeeds until it returns.
	down bool

	// jrn is the shard's write-ahead log (nil = journaling off, the
	// default: the shard is pure in-memory and a crash loses everything).
	jrn *journal.Log
	// crashed marks the window between Crash and the end of Restart's
	// replay; the shard is down throughout.
	crashed     bool
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
	// budgets is each function's retry-token balance (created lazily; a
	// missing entry means the full BudgetBurst). Accessed by key only —
	// never iterated — so determinism is unaffected.
	budgets map[string]float64
	// budgetDry marks functions whose bucket is currently empty, so the
	// "budget.exhausted" control event fires once per dry spell, not once
	// per rejected redelivery.
	budgetDry map[string]bool

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

// NewShard returns an empty shard with a 5-minute lease timeout. src
// seeds retry-backoff jitter and may be nil (fixed backoff).
func newRefShard(id ShardID, engine *sim.Engine, src *rng.Source) *refShard {
	return &refShard{
		ID:             id,
		engine:         engine,
		src:            src,
		LeaseTimeout:   5 * time.Minute,
		BackoffCap:     5 * time.Minute,
		ReplayBase:     2 * time.Second,
		ReplayPerEntry: 200 * time.Microsecond,
		ReplayBatch:    256,
		queues:         make(map[string]*callHeap),
		leases:         make(map[uint64]*refLease),
	}
}

// EnableJournal attaches a write-ahead log with the given sync-horizon
// lag, making the shard crash-recoverable: Crash loses only the
// unflushed tail, Restart replays the durable prefix.
func (s *refShard) EnableJournal(flushLag time.Duration) {
	s.jrn = journal.New(s.engine, flushLag)
}

// Journal exposes the shard's log (nil when journaling is off).
func (s *refShard) Journal() *journal.Log { return s.jrn }

// SetDown marks the shard unavailable (true) or available again (false).
// Durable state — queued calls and leases — survives the window; lease
// timers keep running, so a lease can expire during the outage and the
// call redelivers once the shard returns (at-least-once, possibly
// duplicating work whose Ack was lost to the outage). A crashed shard
// cannot be brought back this way: only Restart's replay returns it.
func (s *refShard) SetDown(down bool) {
	if !down && s.crashed {
		return
	}
	s.down = down
}

// IsDown reports whether the shard is in an unavailability window.
func (s *refShard) IsDown() bool { return s.down }

// Enqueue persists a call, reporting acceptance (false while the shard is
// unavailable — the caller must pick another shard). The call becomes
// eligible for delivery once virtual time reaches its StartAfter.
func (s *refShard) Enqueue(c *function.Call) bool {
	if s.down {
		return false
	}
	c.State = function.StateQueued
	c.QueuedAt = s.engine.Now()
	s.requeue(c, c.StartAfter)
	s.Enqueued.Inc()
	if s.jrn != nil {
		s.jrn.Append(journal.OpEnqueue, c, c.StartAfter)
	}
	s.Obs.Emit(c, trace.KindEnqueue, trace.Ref(s.ID.Region, s.ID.Index))
	return true
}

// requeue places a call into its per-function heap, creating the heap on
// first sight of the function. Shared by Enqueue, retry redelivery, and
// crash replay.
func (s *refShard) requeue(c *function.Call, readyAt sim.Time) {
	q, ok := s.queues[c.Spec.Name]
	if !ok {
		q = &callHeap{}
		s.queues[c.Spec.Name] = q
		s.funcNames = append(s.funcNames, c.Spec.Name)
		sortStrings(s.funcNames)
	}
	q.push(queued{call: c, readyAt: readyAt})
	s.pending++
}

// Pending returns the number of calls stored and not currently leased.
func (s *refShard) Pending() int { return s.pending }

// Leased returns the number of outstanding leases.
func (s *refShard) Leased() int { return len(s.leases) }

// PendingReady returns how many stored calls are ready (start time passed)
// now. O(pending); used by control-plane snapshots, not the critical path.
func (s *refShard) PendingReady() int {
	now, n := s.engine.Now(), 0
	for _, q := range s.queues {
		for _, it := range *q {
			if it.readyAt <= now {
				n++
			}
		}
	}
	return n
}

// Poll offers up to max ready calls to the caller (a scheduler), leasing
// each. Functions are served round-robin so one hot function cannot
// starve the rest of a shard. If filter is non-nil, only calls it accepts
// are offered (used for function-subset pulls); rejected calls stay
// queued.
func (s *refShard) Poll(max int, filter func(*function.Call) bool) []*function.Call {
	return s.PollInto(nil, max, filter)
}

// PollInto is Poll appending into dst, so a caller polling every tick
// can reuse one scratch buffer instead of allocating a result slice per
// shard per tick.
func (s *refShard) PollInto(dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	return s.PollAs(nil, dst, max, filter)
}

// PollAs is PollInto with every lease granted to h.
func (s *refShard) PollAs(h *Holder, dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	if s.down || max <= 0 || len(s.funcNames) == 0 {
		return dst
	}
	now := s.engine.Now()
	taken := 0
	n := len(s.funcNames)
	for scanned := 0; scanned < n && taken < max; scanned++ {
		name := s.funcNames[(s.cursor+scanned)%n]
		q := s.queues[name]
		for q.Len() > 0 && taken < max {
			top := (*q)[0]
			if len(s.tombstones) > 0 && s.tombstones[top.call.ID] {
				// Duplicate settled by a late ack after crash replay;
				// discard lazily (pending was decremented at suppression).
				delete(s.tombstones, top.call.ID)
				q.pop()
				continue
			}
			if s.SweepExpired && top.call.Expired(now) {
				// Doomed work: past its deadline, sweep to dead-letter
				// instead of offering it. Continue — an expired head must
				// not hide ready live calls behind it.
				q.pop()
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
			dst = append(dst, s.offer(top.call, h))
			taken++
		}
	}
	s.cursor = (s.cursor + 1) % n
	return dst
}

func (s *refShard) offer(c *function.Call, h *Holder) *function.Call {
	c.State = function.StateLeased
	c.Attempt++
	if len(s.recovered) > 0 {
		// Once a replayed call is re-delivered, a late pre-crash ack can
		// no longer suppress it — the duplicate execution is in flight.
		delete(s.recovered, c.ID)
	}
	if s.jrn != nil {
		s.jrn.Append(journal.OpLease, c, 0)
	}
	s.Obs.Emit(c, trace.KindLease, int64(c.Attempt))
	l := s.getLease()
	l.call, l.holder = c, h
	l.id = c.ID
	l.timer = s.engine.Schedule(s.LeaseTimeout, l.fire)
	s.leases[c.ID] = l
	return c
}

// getLease recycles a lease object, building its expiry closure exactly
// once per object lifetime.
func (s *refShard) getLease() *refLease {
	if n := len(s.freeLease); n > 0 {
		l := s.freeLease[n-1]
		s.freeLease[n-1] = nil
		s.freeLease = s.freeLease[:n-1]
		return l
	}
	l := &refLease{}
	l.fire = func() { s.expire(l) }
	return l
}

// putLease returns a settled lease to the pool. The caller must have
// stopped (or observed the firing of) l.timer first; the engine's
// generation-checked timers guarantee a recycled lease can never receive
// a stale expiry.
func (s *refShard) putLease(l *refLease) {
	l.call, l.holder = nil, nil
	l.id = 0
	l.timer = sim.Timer{}
	s.freeLease = append(s.freeLease, l)
}

func (s *refShard) expire(l *refLease) {
	cur, ok := s.leases[l.id]
	if !ok || cur != l {
		return
	}
	delete(s.leases, l.id)
	s.Expired.Inc()
	c := l.call
	s.putLease(l)
	s.Obs.Emit(c, trace.KindLeaseExpired, 0)
	s.retryOrDrop(c, 0)
}

// Renew extends a held lease by another LeaseTimeout — schedulers renew
// the leases of calls they are still buffering or executing, so
// redelivery happens only when a scheduler actually dies. It reports
// whether the lease was still held.
func (s *refShard) Renew(id uint64) bool { return s.RenewAs(nil, id) }

// RenewAs extends the lease h holds on id; a lease granted to another
// holder is not h's to extend.
func (s *refShard) RenewAs(h *Holder, id uint64) bool {
	l, ok := s.leases[id]
	if s.down || !ok || l.holder != h {
		return false
	}
	l.timer.Stop()
	l.timer = s.engine.Schedule(s.LeaseTimeout, l.fire)
	return true
}

// Ack confirms successful execution; the call is permanently removed. It
// reports whether the lease was still held. After a crash replay, an ack
// for an execution that started before the crash finds no lease but a
// replay-requeued duplicate — the duplicate is settled in place instead
// of being allowed to run again (duplicate suppression).
func (s *refShard) Ack(id uint64) bool {
	if s.down {
		return false
	}
	l, ok := s.leases[id]
	if !ok {
		return s.suppressDuplicate(id)
	}
	l.timer.Stop()
	delete(s.leases, id)
	c := l.call
	c.State = function.StateSucceeded
	if s.jrn != nil {
		s.jrn.Append(journal.OpAck, c, 0)
	}
	s.Obs.Emit(c, trace.KindAck, 0)
	s.putLease(l)
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
func (s *refShard) suppressDuplicate(id uint64) bool {
	c, ok := s.recovered[id]
	if !ok {
		return false
	}
	delete(s.recovered, id)
	if s.tombstones == nil {
		s.tombstones = make(map[uint64]bool)
	}
	s.tombstones[id] = true
	s.pending--
	c.State = function.StateSucceeded
	if s.jrn != nil {
		s.jrn.Append(journal.OpAck, c, 0)
	}
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
func (s *refShard) Nack(id uint64) bool {
	return s.nackWith(id, 0, false)
}

// NackBase is Nack with an explicit retry backoff base — the scheduling
// policy's retry-placement hook. The jitter draw, budget spend, and all
// other redelivery mechanics are unchanged.
func (s *refShard) NackBase(id uint64, base time.Duration) bool {
	return s.nackWith(id, base, true)
}

func (s *refShard) nackWith(id uint64, base time.Duration, override bool) bool {
	l, ok := s.leases[id]
	if s.down || !ok {
		return false
	}
	l.timer.Stop()
	delete(s.leases, id)
	s.Nacked.Inc()
	c := l.call
	s.putLease(l)
	s.Obs.Emit(c, trace.KindNack, 0)
	if !override {
		base = c.Spec.Retry.Backoff
	}
	s.retryOrDrop(c, base)
	return true
}

func (s *refShard) retryOrDrop(c *function.Call, base time.Duration) {
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
	if s.jrn != nil {
		s.jrn.Append(journal.OpRetry, c, readyAt)
	}
	s.Obs.Emit(c, trace.KindRetry, int64(backoff))
	s.requeue(c, readyAt)
}

// deadLetter terminally settles a call with an explicit disposition,
// shared by retry exhaustion, budget exhaustion, expiry sweeping, and
// scheduler-initiated shedding. Every path journals OpDeadLetter (a
// terminal record, so crash replay never resurrects the call), bumps the
// aggregate and per-reason counters, and feeds the matching trace kind
// and ledger hook.
func (s *refShard) deadLetter(c *function.Call, reason DeadReason) {
	c.State = function.StateFailed
	s.DeadLetters.Inc()
	if s.jrn != nil {
		s.jrn.Append(journal.OpDeadLetter, c, 0)
	}
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
func (s *refShard) Terminate(id uint64, reason DeadReason) bool {
	l, ok := s.leases[id]
	if s.down || !ok {
		return false
	}
	l.timer.Stop()
	delete(s.leases, id)
	c := l.call
	s.putLease(l)
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
func (s *refShard) Release(id uint64) bool {
	l, ok := s.leases[id]
	if s.down || !ok {
		return false
	}
	l.timer.Stop()
	delete(s.leases, id)
	c := l.call
	s.putLease(l)
	s.Released.Inc()
	c.State = function.StateQueued
	readyAt := s.engine.Now()
	if s.jrn != nil {
		s.jrn.Append(journal.OpRetry, c, readyAt)
	}
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
func (s *refShard) DrainExtract(dst []*function.Call, max int, filter func(*function.Call) bool) []*function.Call {
	if max <= 0 || len(s.funcNames) == 0 {
		return dst
	}
	taken := 0
	var kept []queued
	for _, name := range s.funcNames {
		if taken >= max {
			break
		}
		q := s.queues[name]
		if q.Len() == 0 {
			continue
		}
		kept = kept[:0]
		for q.Len() > 0 {
			it := q.pop()
			if len(s.tombstones) > 0 && s.tombstones[it.call.ID] {
				delete(s.tombstones, it.call.ID) // settled garbage; discard
				continue
			}
			if taken < max && filter(it.call) {
				if len(s.recovered) > 0 {
					delete(s.recovered, it.call.ID)
				}
				s.pending--
				s.DrainedOut.Inc()
				if s.jrn != nil {
					s.jrn.Append(journal.OpAck, it.call, 0)
				}
				dst = append(dst, it.call)
				taken++
				continue
			}
			kept = append(kept, it)
		}
		for _, it := range kept {
			q.push(it)
		}
	}
	return dst
}

// AdoptDrained persists a call migrated from a draining peer shard. The
// call is already durably owned by the platform (conservation keys on its
// submission region, which does not change), so no submit-side counters
// move — only the drain accounting and this shard's journal. Retry
// backoff in flight at extraction is dropped: the call becomes ready at
// max(now, StartAfter). It reports false while the shard is unavailable.
func (s *refShard) AdoptDrained(c *function.Call) bool {
	if s.down {
		return false
	}
	c.State = function.StateQueued
	readyAt := s.engine.Now()
	if c.StartAfter > readyAt {
		readyAt = c.StartAfter
	}
	s.requeue(c, readyAt)
	s.DrainedIn.Inc()
	if s.jrn != nil {
		s.jrn.Append(journal.OpEnqueue, c, readyAt)
	}
	s.Obs.Emit(c, trace.KindDrainMigrated, trace.Ref(s.ID.Region, s.ID.Index))
	return true
}

// earnBudget credits a function's retry bucket for a first-attempt
// success. Buckets start at BudgetBurst and grow without cap: the
// amplification bound is global (spent ≤ β·firstAcks + burst), not
// windowed.
func (s *refShard) earnBudget(name string) {
	if !s.BudgetEnabled {
		return
	}
	if s.budgets == nil {
		s.budgets = make(map[string]float64)
	}
	b, ok := s.budgets[name]
	if !ok {
		b = s.BudgetBurst
	}
	b += s.BudgetRatio
	s.budgets[name] = b
	if b >= 1 && s.budgetDry[name] {
		delete(s.budgetDry, name)
		s.Obs.Control("budget.recovered", fmt.Sprintf("%v %s", s.ID, name))
	}
}

// spendBudget consumes one retry token for a redelivery, reporting false
// when the bucket is empty (the caller dead-letters the call). With the
// budget disabled it always allows.
func (s *refShard) spendBudget(name string) bool {
	if !s.BudgetEnabled {
		return true
	}
	if s.budgets == nil {
		s.budgets = make(map[string]float64)
	}
	b, ok := s.budgets[name]
	if !ok {
		b = s.BudgetBurst
	}
	if b < 1 {
		s.budgets[name] = b
		if !s.budgetDry[name] {
			if s.budgetDry == nil {
				s.budgetDry = make(map[string]bool)
			}
			s.budgetDry[name] = true
			s.Obs.Control("budget.exhausted", fmt.Sprintf("%v %s", s.ID, name))
		}
		return false
	}
	s.budgets[name] = b - 1
	s.BudgetSpent.Inc()
	return true
}

// BudgetBalance returns a function's current retry-token balance on this
// shard (the full burst when the function has never spent or earned).
func (s *refShard) BudgetBalance(name string) float64 {
	if b, ok := s.budgets[name]; ok {
		return b
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
func (s *refShard) backoff(c *function.Call, base time.Duration) time.Duration {
	if base <= 0 || s.src == nil {
		return base
	}
	window := base
	for i := 1; i < c.Attempt && window < s.BackoffCap; i++ {
		window <<= 1
	}
	if window > s.BackoffCap {
		window = s.BackoffCap
	}
	return time.Duration(s.src.Float64() * float64(window))
}

// CrashHeld returns the number of calls that survive only in the durable
// journal of a crashed shard: destroyed in memory, not yet requeued by
// replay. The conservation closure counts them as held — they are owed
// back to the platform and reappear during Restart's replay.
func (s *refShard) CrashHeld() int { return s.crashHeld }

// Recovering reports whether the shard is between Crash and the end of
// Restart's replay.
func (s *refShard) Recovering() bool { return s.crashed }

// Crash models a process/host failure: all in-memory state — queues,
// leases, lease timers — is destroyed instantly. With journaling on, the
// unflushed journal tail is torn off and only calls whose every record
// sits in that tail are truly lost; everything with a durable record is
// recoverable by Restart. Without a journal every held call is lost. The
// shard stays down (rejecting all requests) until Restart completes.
func (s *refShard) Crash() {
	s.down = true
	s.crashed = true
	s.replayTimer.Stop()
	s.replayer = nil

	// Snapshot what memory held, in deterministic order, before wiping.
	var held []*function.Call
	for _, name := range s.funcNames {
		for _, it := range *s.queues[name] {
			if len(s.tombstones) > 0 && s.tombstones[it.call.ID] {
				continue // already settled; the heap entry is garbage
			}
			held = append(held, it.call)
		}
	}
	leaseIDs := make([]uint64, 0, len(s.leases))
	for id, l := range s.leases {
		l.timer.Stop()
		leaseIDs = append(leaseIDs, id)
	}
	slices.Sort(leaseIDs)
	for _, id := range leaseIDs {
		held = append(held, s.leases[id].call)
	}

	s.queues = make(map[string]*callHeap)
	s.funcNames = nil
	s.cursor = 0
	s.leases = make(map[uint64]*refLease)
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
func (s *refShard) lose(c *function.Call) {
	s.LostOnCrash.Inc()
	c.State = function.StateFailed
	s.Obs.Emit(c, trace.KindLost, 0)
}

// Restart brings a crashed shard back: after ReplayBase (process start,
// log open) it replays the journal's durable prefix in ReplayBatch-sized
// steps, each step costing ReplayPerEntry per record of virtual time.
// Non-terminal calls are requeued — orphaned leases immediately, since
// their outcome is unknown (the at-least-once redelivery) — and the
// shard accepts requests again once the last batch lands.
func (s *refShard) Restart() {
	if !s.crashed {
		s.down = false
		return
	}
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

func (s *refShard) replayStep() {
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

func (s *refShard) finishReplay(replayed int) {
	s.down = false
	s.crashed = false
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
func (s *refShard) replayEntry(e journal.Entry) {
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

// sortStrings is an insertion sort: funcNames grows one name at a time
// and is nearly sorted, so this beats sort.Strings and allocates nothing.
func sortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// shardOps is what the differential driver calls on both shards.
type shardOps interface {
	EnableJournal(time.Duration)
	Enqueue(*function.Call) bool
	PollAs(*Holder, []*function.Call, int, func(*function.Call) bool) []*function.Call
	PollInto([]*function.Call, int, func(*function.Call) bool) []*function.Call
	Ack(uint64) bool
	Nack(uint64) bool
	NackBase(uint64, time.Duration) bool
	Renew(uint64) bool
	Terminate(uint64, DeadReason) bool
	Release(uint64) bool
	SetDown(bool)
	Crash()
	Restart()
	DrainExtract([]*function.Call, int, func(*function.Call) bool) []*function.Call
	AdoptDrained(*function.Call) bool
	Pending() int
	Leased() int
	PendingReady() int
	CrashHeld() int
	IsDown() bool
	Recovering() bool
	BudgetBalance(string) float64
}

// setField assigns one of the exported knobs both shard types share.
func setField(sh shardOps, name string, v any) {
	reflect.ValueOf(sh).Elem().FieldByName(name).Set(reflect.ValueOf(v))
}

// counters renders every stats.Counter field of a shard, by name.
func counters(sh shardOps) string {
	v := reflect.ValueOf(sh).Elem()
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.IsExported() && f.Type == reflect.TypeOf(stats.Counter{}) {
			fmt.Fprintf(&b, "%s=%v ", f.Name, v.Field(i).Addr().Interface().(*stats.Counter).Value())
		}
	}
	return b.String()
}

// world is one side of the comparison: an engine of its own, two shards
// on it (drains move calls between them, and their expiries interleave),
// two holders polling both, its own copy of every call, and a log of
// everything observable in the order it happened. Each line carries the virtual time and the number of
// events fired so far, so two logs agree only if every event — expiry,
// journal flush, replay step or bystander — fired in the same global
// order on both engines.
type world struct {
	e      *sim.Engine
	tr     *trace.Recorder
	obs    *lifecycle.Spine
	shards [2]shardOps
	// holders are two scheduler processes; held is what each believes it
	// holds (a scheduler's origin map).
	holders [2]*Holder
	held    [2]map[uint64]int
	calls   map[uint64]*function.Call
	seen    int // the poll filter's state
	log     []string
}

func newWorld(mk func(ShardID, *sim.Engine, *rng.Source) shardOps) *world {
	e := sim.NewEngine()
	tp := trace.DefaultParams()
	tp.Enabled = true
	tp.RingSize = 1 << 16
	w := &world{e: e, tr: trace.NewRecorder(e, 1, tp), calls: make(map[uint64]*function.Call)}
	w.obs = lifecycle.New(e, w.tr, nil, nil)
	src := rng.New(7)
	for k := range w.shards {
		sh := mk(ShardID{Index: k}, e, src.Split())
		setField(sh, "Obs", w.obs)
		setField(sh, "BudgetRatio", 0.5)
		setField(sh, "BudgetBurst", 3.0)
		setField(sh, "ReplayBase", 300*time.Millisecond)
		setField(sh, "ReplayBatch", 3)
		w.shards[k] = sh
		w.restart(k)
	}
	return w
}

// restart starts holder j afresh: a scheduler crash and restart. On the
// new shard the crash releases the old holder, as the scheduler's does.
func (w *world) restart(j int) {
	if _, ok := w.shards[0].(*Shard); ok && w.holders[j] != nil {
		w.holders[j].Release()
	}
	w.holders[j] = NewHolder(w.e)
	w.held[j] = make(map[uint64]int)
}

// renewalRound renews what holder j holds: on the new shard as one round
// of its sessions, on the reference as the scheduler did it before
// sessions — every lease it believes it holds, one at a time in ID order.
func (w *world) renewalRound(j int) {
	h := w.holders[j]
	if _, ok := w.shards[0].(*Shard); ok {
		h.Renew()
		return
	}
	ids := make([]uint64, 0, len(w.held[j]))
	for id := range w.held[j] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		w.shards[w.held[j][id]].(*refShard).RenewAs(h, id)
	}
}

func (w *world) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v #%d: ", w.e.Now(), w.e.Processed())+fmt.Sprintf(format, args...))
}

// filter is a stateful poll filter: it turns away every third call it is
// shown, and what it was shown is itself part of the log.
func (w *world) filter(c *function.Call) bool {
	w.seen++
	w.logf("filter sees %d", c.ID)
	return w.seen%3 != 0
}

func (w *world) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%v fired=%d", w.e.Now(), w.e.Processed())
	for _, sh := range w.shards {
		fmt.Fprintf(&b, "\n  %spending=%d leased=%d ready=%d held=%d down=%v recovering=%v",
			counters(sh), sh.Pending(), sh.Leased(), sh.PendingReady(),
			sh.CrashHeld(), sh.IsDown(), sh.Recovering())
	}
	return b.String()
}

// checkIndex verifies what the new shard keeps beside the reference's
// state: the name-ordered queues mirror the reference's names, a due bit
// marks a head a poll would act on and a clear one a head filed in time,
// the lease list is the lease map in (at, seq) order, and the reference's
// queues and tombstones hold the same entries.
func checkIndex(s *Shard, ref *refShard) error {
	names := make([]string, len(s.byName))
	for i, q := range s.byName {
		names[i] = q.name
	}
	if !slices.IsSorted(names) || !slices.Equal(names, ref.funcNames) {
		return fmt.Errorf("queue names %v, want %v", names, ref.funcNames)
	}
	if len(s.due) != (len(names)+63)/64 || len(s.queues) != len(names) {
		return fmt.Errorf("%d queues in order, %d due words, %d queues by name",
			len(names), len(s.due), len(s.queues))
	}
	if len(names)%64 != 0 && s.due[len(s.due)-1]>>(len(names)%64) != 0 {
		return fmt.Errorf("due bits set past the last of %d queues", len(names))
	}
	type filing struct {
		name string
		at   sim.Time
	}
	filings := make(map[filing]bool, len(s.soon))
	for _, f := range s.soon {
		filings[filing{f.call.Spec.Name, f.readyAt}] = true
	}
	for i, name := range names {
		q := s.byName[i]
		if s.queues[name] != q || q.idx != i {
			return fmt.Errorf("queue %d (%s) is not the one filed under its name (idx %d)", i, name, q.idx)
		}
		tombstone := q.h.Len() > 0 && s.tombstones[q.h[0].call.ID]
		if s.due[i>>6]>>(i&63)&1 == 1 {
			if q.h.wake() > s.engine.Now() && !tombstone {
				return fmt.Errorf("queue %d (%s) is marked due, but its head wakes at %v", i, name, q.h.wake())
			}
		} else if q.h.Len() > 0 && q.filed > q.h.wake() {
			return fmt.Errorf("queue %d (%s) is not marked due, and its head's wake %v is not filed (filed %v)",
				i, name, q.h.wake(), q.filed)
		}
		if q.filed != never && !filings[filing{name, q.filed}] {
			return fmt.Errorf("queue %d (%s) is filed at %v, which soon does not hold", i, name, q.filed)
		}
		if q.h.Len() != ref.queues[name].Len() {
			return fmt.Errorf("queue %s holds %d entries, want %d", name, q.h.Len(), ref.queues[name].Len())
		}
	}
	if s.cursor != ref.cursor || len(s.tombstones) != len(ref.tombstones) {
		return fmt.Errorf("cursor/tombstones = %d/%d, want %d/%d",
			s.cursor, len(s.tombstones), ref.cursor, len(ref.tombstones))
	}
	n := 0
	for i, ss := range s.sessions {
		m, block := 0, true
		var prev *lease
		for l := ss.head; l != nil; prev, l = l, l.next {
			if l.prev != prev || l.ss != ss {
				return fmt.Errorf("lease %d: links broken", l.call.ID)
			}
			if l == ss.fresh {
				block = false
			}
			if block != (l.seq < ss.b) {
				return fmt.Errorf("lease %d (seq %d) on the wrong side of block %d", l.call.ID, l.seq, ss.b)
			}
			at := l.at
			if block {
				at = ss.at
			} else if prev != nil && prev.seq >= ss.b && l.before(prev) {
				return fmt.Errorf("lease %d (%v, %d) listed after (%v, %d)", l.call.ID, l.at, l.seq, prev.at, prev.seq)
			}
			if s.leases[l.call.ID] != l {
				return fmt.Errorf("listed lease %d is not the one in the map", l.call.ID)
			}
			want := ref.leases[l.call.ID]
			if want == nil || want.timer.When() != at {
				return fmt.Errorf("lease %d expires at %v, reference disagrees", l.call.ID, at)
			}
			if (i == anon) != (want.holder == nil) {
				return fmt.Errorf("lease %d in session %d, reference holder %p", l.call.ID, i, want.holder)
			}
			m++
		}
		if ss.tail != prev || m != ss.n || block && ss.fresh != nil {
			return fmt.Errorf("session %d lists %d leases ending at %p, counts %d, tail %p", i, m, prev, ss.n, ss.tail)
		}
		n += m
	}
	if n != len(s.leases) {
		return fmt.Errorf("sessions hold %d leases, map holds %d", n, len(s.leases))
	}
	return nil
}

// runShardsAgainstReference interprets prog as a sequence of shard
// operations, applies each to the Shard and to the reference on twin
// engines, and compares everything observable after every step. It
// returns the number of steps taken.
func runShardsAgainstReference(t testing.TB, prog []byte) int {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	timeouts := [...]time.Duration{5 * time.Second, 2 * time.Second, 20 * time.Second, 0, -time.Second}
	// Time-shifted work: some calls are due long after everything else
	// in the program has happened to them.
	startAfters := [...]time.Duration{-5 * time.Second, 0, 0, 2 * time.Second, 5 * time.Second,
		30 * time.Second, 5 * time.Minute, time.Hour}
	waits := [...]time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second,
		2 * time.Second, 3 * time.Second, 7 * time.Second, 25 * time.Second}

	got := newWorld(func(id ShardID, e *sim.Engine, src *rng.Source) shardOps { return NewShard(id, e, src) })
	want := newWorld(func(id ShardID, e *sim.Engine, src *rng.Source) shardOps { return newRefShard(id, e, src) })
	worlds := [...]*world{got, want}
	timeout := timeouts[next()%len(timeouts)]
	if lag := next() % 4; lag > 0 {
		for _, w := range worlds {
			for _, sh := range w.shards {
				sh.EnableJournal(time.Duration(lag-1) * 400 * time.Millisecond)
			}
		}
	}
	budget, sweep := next()%2 == 0, next()%2 == 0
	for _, w := range worlds {
		for _, sh := range w.shards {
			setField(sh, "LeaseTimeout", timeout)
			setField(sh, "BudgetEnabled", budget)
			setField(sh, "SweepExpired", sweep)
		}
	}
	// Function names arrive in an order that is not the sorted one, so new
	// queues keep being inserted in front of the poll cursor. Early steps
	// pick among the first sixteen; the rest sort among those (fn-03.1
	// after fn-03), so a shard's queues run past one word of the due
	// bitset and are inserted on both sides of the boundary.
	specs := make([]*function.Spec, 96)
	for i := range specs {
		name := fmt.Sprintf("fn-%02d", i*7%16)
		if i >= 16 {
			name += fmt.Sprintf(".%d", i/16)
		}
		specs[i] = &function.Spec{
			Name:  name,
			Retry: function.RetryPolicy{MaxAttempts: 1 + i%4, Backoff: time.Duration(i%3) * 6 * time.Second},
		}
	}
	var offered []uint64 // every ID ever leased, as the new shard offered them
	var restarting [2]bool
	nextID := uint64(0)
	pickID := func() uint64 {
		if len(offered) == 0 {
			return 0
		}
		// Mostly a recent offer (probably still leased), sometimes an old
		// one (settled long ago, or lost to a crash: the late-ack path).
		n := next()
		if n%4 != 0 {
			return offered[len(offered)-1-n/4%min(len(offered), 12)]
		}
		return offered[n/4%len(offered)]
	}
	bystander := func(at sim.Time) {
		for _, w := range worlds {
			w := w
			w.e.At(at, func() { w.logf("bystander\n%s", w.state()) })
		}
	}

	steps := 0
	for pos < len(prog) {
		steps++
		k := next() % 2
		switch op := next() % 36; {
		case op < 7:
			nextID++
			spec := specs[next()%min(len(specs), 2+steps/4)]
			now := got.e.Now()
			startAfter := now + startAfters[next()%len(startAfters)]
			var deadline sim.Time
			if d := next() % 8; d < 5 {
				// Often before StartAfter: a head that expires before it is
				// ready. A deadline passes strictly after its instant, so one
				// tick short of the time grid makes a poll land on the very
				// instant the call first counts as expired.
				deadline = now + sim.Time(d)*1500*time.Millisecond - 1
			}
			for _, w := range worlds {
				c := &function.Call{ID: nextID, Spec: spec, StartAfter: startAfter, Deadline: deadline}
				w.calls[nextID] = c
				w.obs.Emit(c, trace.KindSubmit, 0)
				w.logf("enqueue %d on %d: %v", c.ID, k, w.shards[k].Enqueue(c))
			}
		case op < 13:
			max := 1 + next()%8
			filtered := next()%3 == 0
			if next()%4 == 0 {
				// Something else is due at the very instant these leases expire.
				bystander(got.e.Now() + timeout)
			}
			for _, w := range worlds {
				var f func(*function.Call) bool
				if filtered {
					f = w.filter
				}
				for _, c := range w.shards[k].PollInto(nil, max, f) {
					w.logf("shard %d offers %d attempt %d", k, c.ID, c.Attempt)
					if w == got {
						offered = append(offered, c.ID)
					}
				}
			}
			if next()%4 == 0 {
				bystander(got.e.Now() + timeout)
			}
		case op < 15:
			id := pickID()
			for _, w := range worlds {
				w.logf("ack %d: %v", id, w.shards[k].Ack(id))
			}
		case op == 15:
			// Executions that outlived a crash report in: acks for calls the
			// replay has requeued tombstone the queued duplicates, due or not.
			var ids []uint64
			for id := range got.shards[k].(*Shard).recovered {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			for i, stride := 0, 1+next()%3; i < len(ids); i += stride {
				for _, w := range worlds {
					w.logf("late ack %d: %v", ids[i], w.shards[k].Ack(ids[i]))
				}
			}
		case op == 16:
			id := pickID()
			for _, w := range worlds {
				w.logf("nack %d: %v", id, w.shards[k].Nack(id))
			}
		case op == 17:
			id, base := pickID(), time.Duration(next()%4)*time.Second
			for _, w := range worlds {
				w.logf("nack %d base %v: %v", id, base, w.shards[k].NackBase(id, base))
			}
		case op < 20:
			id := pickID()
			for _, w := range worlds {
				w.logf("renew %d: %v", id, w.shards[k].Renew(id))
			}
		case op == 20:
			// A scheduler's renewal round: everything it might hold, in ID order.
			ids := slices.Clone(offered[len(offered)-min(len(offered), 24):])
			slices.Sort(ids)
			for _, w := range worlds {
				held := 0
				for _, id := range ids {
					if w.shards[k].Renew(id) {
						held++
					}
				}
				w.logf("renewal round on %d: %d held", k, held)
			}
		case op == 21:
			id, reason := pickID(), [...]DeadReason{ReasonExpired, ReasonShed}[next()%2]
			for _, w := range worlds {
				w.logf("terminate %d %v: %v", id, reason, w.shards[k].Terminate(id, reason))
			}
		case op == 22:
			id := pickID()
			for _, w := range worlds {
				w.logf("release %d: %v", id, w.shards[k].Release(id))
			}
		case op == 23:
			down := next()%2 == 0
			for _, w := range worlds {
				w.shards[k].SetDown(down)
			}
		case op == 24:
			// One Restart per Crash: a second one while the first is still
			// replaying is a caller's error in both implementations.
			crash := next()%3 != 0 || restarting[k] && got.shards[k].Recovering()
			restarting[k] = !crash && got.shards[k].Recovering()
			for _, w := range worlds {
				if crash {
					w.shards[k].Crash()
				} else {
					w.shards[k].Restart()
				}
			}
		case op == 25:
			max, odd := 1+next()%6, next()%2 == 0
			for _, w := range worlds {
				moved := w.shards[k].DrainExtract(nil, max, func(c *function.Call) bool { return odd || c.ID%2 == 0 })
				for _, c := range moved {
					w.logf("drained %d from %d; adopted by %d: %v", c.ID, k, 1-k, w.shards[1-k].AdoptDrained(c))
				}
			}
		case op == 26:
			sweep = !sweep
			for _, w := range worlds {
				setField(w.shards[k], "SweepExpired", sweep)
			}
		case op == 27:
			// A high byte sets shard k's timeout alone, so a holder's round
			// gives its two shards' leases different deadlines.
			n := next()
			timeout = timeouts[n%len(timeouts)]
			for _, w := range worlds {
				for i, sh := range w.shards {
					if n < 128 || i == k {
						setField(sh, "LeaseTimeout", timeout)
					}
				}
			}
		case op == 32:
			j, max := next()%2, 1+next()%8
			for _, w := range worlds {
				for _, c := range w.shards[k].PollAs(w.holders[j], nil, max, nil) {
					w.logf("shard %d offers %d attempt %d to holder %d", k, c.ID, c.Attempt, j)
					w.held[j][c.ID] = k
					if w == got {
						offered = append(offered, c.ID)
					}
				}
			}
		case op == 33:
			j, down := next()%2, next()%4 == 0
			for _, w := range worlds {
				if down {
					w.shards[k].SetDown(true)
				}
				w.renewalRound(j)
				w.logf("holder %d renews", j)
			}
		case op == 34:
			// A holder settles a call it believes it holds. A refused settle
			// (the shard is down) ends its claim all the same.
			j, n, how := next()%2, next(), next()%4
			ids := make([]uint64, 0, len(got.held[j]))
			for id := range got.held[j] {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				break
			}
			slices.Sort(ids)
			id := ids[n%len(ids)]
			for _, w := range worlds {
				sh := w.shards[w.held[j][id]]
				delete(w.held[j], id)
				if sh.IsDown() && w == got {
					w.holders[j].Forget(sh.(*Shard), id)
				}
				var ok bool
				switch how {
				case 0:
					ok = sh.Ack(id)
				case 1:
					ok = sh.Nack(id)
				case 2:
					ok = sh.Release(id)
				default:
					ok = sh.Terminate(id, ReasonShed)
				}
				w.logf("holder %d settles %d (%d): %v", j, id, how, ok)
			}
		case op == 35:
			j := next() % 2
			for _, w := range worlds {
				w.restart(j)
				w.logf("holder %d restarts", j)
			}
		default:
			d := next() % (len(waits) + 1)
			for _, w := range worlds {
				if d < len(waits) {
					w.e.RunFor(waits[d])
				} else {
					// One event: the state compared below then tells apart
					// the order of expiries due at one instant on both shards.
					w.e.Step()
				}
			}
		}

		if g, w := got.state(), want.state(); g != w {
			t.Fatalf("step %d: state\n%s\nwant\n%s", steps, g, w)
		}
		if !slices.Equal(got.log, want.log) {
			for i := range got.log {
				if i >= len(want.log) || got.log[i] != want.log[i] {
					t.Fatalf("step %d: log line %d\n%s\nwant\n%s", steps, i, got.log[i], want.log[min(i, len(want.log)-1)])
				}
			}
			t.Fatalf("step %d: %d log lines, want %d", steps, len(got.log), len(want.log))
		}
		got.log, want.log = got.log[:0], want.log[:0]
		for k := range got.shards {
			if err := checkIndex(got.shards[k].(*Shard), want.shards[k].(*refShard)); err != nil {
				t.Fatalf("step %d: shard %d: %v", steps, k, err)
			}
			// A released holder's sessions close: anon, forgotten and one
			// per live holder at most.
			if n := len(got.shards[k].(*Shard).sessions); n > 2+len(got.holders) {
				t.Fatalf("step %d: shard %d keeps %d sessions", steps, k, n)
			}
		}
		// Each shard's alarm stands for at least one lease.
		alarms := 2
		if held := got.shards[0].Leased() + got.shards[1].Leased(); got.e.Pending() > want.e.Pending() ||
			held > alarms && got.e.Pending() > want.e.Pending()-held+alarms {
			t.Fatalf("step %d: %d events pending with %d leases held (reference: %d)",
				steps, got.e.Pending(), held, want.e.Pending())
		}
	}

	// Let every outstanding lease, retry and replay play out, then compare
	// what the observers recorded call by call.
	for _, w := range worlds {
		w.e.RunFor(time.Minute)
	}
	if g, w := got.state(), want.state(); g != w || !slices.Equal(got.log, want.log) {
		t.Fatalf("after the run: state\n%s\n%v\nwant\n%s\n%v", g, got.log, w, want.log)
	}
	if g, w := got.tr.Controls(), want.tr.Controls(); !slices.Equal(g, w) {
		t.Fatalf("control events\n%v\nwant\n%v", g, w)
	}
	for id := uint64(1); id <= nextID; id++ {
		g, w := got.calls[id], want.calls[id]
		if g.State != w.State || g.Attempt != w.Attempt || g.QueuedAt != w.QueuedAt {
			t.Fatalf("call %d ends %v attempt %d queued %v, want %v attempt %d queued %v",
				id, g.State, g.Attempt, g.QueuedAt, w.State, w.Attempt, w.QueuedAt)
		}
		if g, w := got.tr.Find(id).Render(), want.tr.Find(id).Render(); g != w {
			t.Fatalf("trace of call %d\n%s\nwant\n%s", id, g, w)
		}
	}
	return steps
}

func TestShardMatchesReference(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 32; seed++ {
		prog := make([]byte, 3072)
		rand.New(rand.NewSource(seed)).Read(prog)
		steps += runShardsAgainstReference(t, prog)
	}
	if steps < 20_000 {
		t.Fatalf("only %d random steps compared, want at least 20000", steps)
	}
}

// FuzzShardMatchesReference explores operation sequences beyond the
// seeded ones; testdata/fuzz holds the checked-in corpus.
func FuzzShardMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runShardsAgainstReference(t, prog) })
}
