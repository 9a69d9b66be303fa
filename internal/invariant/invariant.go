// Package invariant continuously checks the platform's correctness
// claims while a simulation runs: call conservation (every submitted
// call is eventually acked, dead-lettered, dropped, or still in flight —
// per function, per region, and in total), lease exclusivity (no call
// dispatched to two workers under one lease, including across chaos
// evacuations), attempt monotonicity, quota ceilings, AIMD bounds and
// slow-start caps, locality containment, and worker accounting closure.
//
// Components never call the checker: they emit each call transition once
// on the lifecycle spine (internal/lifecycle), which feeds On, and On's
// switch is the only place that knows which trace.Kind drives which
// ledger hook. A disabled checker is nil and every hook on it is a
// nil-receiver early return.
//
// Per-call hooks drive a small state machine (the ledger); structural
// checks that need a platform-wide view (conservation closure against
// component counters, quota/AIMD/utilization probes) are registered by
// internal/core as named probes and run at simulated-time intervals and
// once at run end. A violation carries the offending call's ID — the
// same ID the tracer samples by — so xfaas-inspect can print the call's
// critical path next to the violation.
package invariant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

// Params configure the checker.
type Params struct {
	// Enabled turns invariant checking on. Off by default: the hooks are
	// nil-receiver no-ops and cost nothing.
	Enabled bool
	// Interval is how often the registered probes run (0 = only at run
	// end via Final).
	Interval time.Duration
	// MaxViolations bounds the retained violation records; the total
	// count keeps incrementing past it.
	MaxViolations int
}

// DefaultParams checks every simulated minute and keeps 64 violations.
func DefaultParams() Params {
	return Params{Interval: time.Minute, MaxViolations: 64}
}

// Violation is one observed invariant breach.
type Violation struct {
	At   sim.Time
	Name string
	// CallID is the offending call (0 for structural probe violations).
	CallID uint64
	Detail string
	// Context is the most recent Note at the time of the breach —
	// typically the last chaos event, so violations read with their
	// fault environment attached.
	Context string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s", v.At, v.Name)
	if v.CallID != 0 {
		s += fmt.Sprintf(" call=%d", v.CallID)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	if v.Context != "" {
		s += " (during " + v.Context + ")"
	}
	return s
}

// Ledger states of one call. The legal transitions are the platform's
// at-least-once lifecycle: submitted → queued → leased → running →
// completed → acked, with nack/expiry detours through settling back to
// queued (retry) or out to dead-letter, and drop as a terminal straight
// from submitted (routing failure before persistence).
const (
	stSubmitted uint8 = iota
	stQueued
	stLeased
	stRunning
	stCompleted
	stSettling
)

func stateName(s uint8) string {
	switch s {
	case stSubmitted:
		return "submitted"
	case stQueued:
		return "queued"
	case stLeased:
		return "leased"
	case stRunning:
		return "running"
	case stCompleted:
		return "completed"
	case stSettling:
		return "settling"
	}
	return "?"
}

// centry is the ledger record of one in-flight call. Entries are deleted
// at terminal states, so the ledger's size tracks the in-flight count,
// not the run length.
type centry struct {
	state   uint8
	region  int32 // submission region
	attempt int32
	worker  int64 // packed worker ref while running
	// hedge is the packed ref of a live speculative (hedged) copy's
	// worker, zero when none. A hedge never creates a second ledger
	// entry — the clone shares the call ID — so conservation closes with
	// no new terms; this field only tracks which extra worker may
	// legally produce the winning completion.
	hedge int64
	fn    string
}

// packRef encodes a worker identity, biased by one region so that worker
// (0,0) never collides with the zero value centry.worker uses as its
// "no execution" sentinel.
func packRef(region, worker int) int64 { return int64(region+1)<<32 | int64(uint32(worker)) }

func refString(ref int64) string {
	return fmt.Sprintf("w-%d-%d", ref>>32-1, int32(ref))
}

// Tally is a conservation snapshot: terminal outcomes plus the current
// in-flight count. Submitted + Resurrected == Acked + DeadLettered +
// Dropped + Lost + InFlight at every event boundary. Lost counts calls
// destroyed by component crashes before settling (a journal's torn
// tail, a submitter's unflushed batch); Resurrected counts settled
// calls a journal replay legally re-delivered because their terminal
// record was torn off (at-least-once overlap — the ack still stood).
type Tally struct {
	Submitted    uint64
	Acked        uint64
	DeadLettered uint64
	Dropped      uint64
	Lost         uint64
	Resurrected  uint64
	InFlight     int
	// Dead-letter dispositions: Exhausted + Expired + BudgetDenied + Shed
	// == DeadLettered. They refine the terminal, so Gap() is unchanged.
	Exhausted    uint64
	Expired      uint64
	BudgetDenied uint64
	Shed         uint64
	// MigratedOut/MigratedIn book cross-partition fabric handoffs in a
	// partitioned run: a call leaving this platform instance is a
	// terminal here (MigratedOut) and a source on the destination
	// (MigratedIn), so each partition's ledger closes independently while
	// the fabric's Σout ≥ Σin closure holds globally.
	MigratedOut uint64
	MigratedIn  uint64
}

type counts struct {
	submitted, acked, dead, dropped, lost, resurrected uint64
	exhausted, expired, budgetDenied, shed             uint64
	migratedOut, migratedIn                            uint64
}

type probe struct {
	name string
	fn   func(now sim.Time) []string
}

// Checker is the invariant engine. All methods are safe on a nil
// receiver (they no-op), so components hold plain fields and call hooks
// unconditionally. A mutex guards all state: HTTP handlers snapshot
// violations while the paced engine advances, same as trace.Recorder.
type Checker struct {
	engine *sim.Engine
	params Params

	// LocalityCheck, when set (by core), validates a dispatch against the
	// function's locality group at dispatch time; it returns "" when the
	// placement is legal. It runs under the checker's lock and must not
	// call back into the checker.
	LocalityCheck func(c *function.Call, region, worker int) string

	// ExpiryDispatchCheck, when set (by core, iff expiry sweeping is on),
	// makes dispatching a call past its deadline a violation: the sweeps
	// promise expired calls never reach a worker. Off by default because
	// without sweeping, dispatching an expired call is the platform's
	// normal behavior (it completes as an SLO miss).
	ExpiryDispatchCheck bool

	mu         sync.Mutex
	ledger     map[uint64]centry
	byFunc     map[string]*counts
	byRegion   []counts
	total      counts
	violations []Violation
	nViol      uint64
	lateEvents uint64
	evals      uint64
	note       string
	// orphaned marks calls whose durable record diverged from a live copy
	// a scheduler or worker may still hold: booked lost while leased or
	// running (a crashed shard's torn tail), or replay-requeued while a
	// pre-crash execution was still in flight. Later events on those IDs
	// are at-least-once fallout — tolerated, never re-entered into the
	// ledger. Bounded by the crash blast radius, not the call volume.
	orphaned map[uint64]struct{}

	probes []probe
}

// NewChecker returns a checker for a platform with numRegions regions.
// When params.Enabled is false it returns nil, which is the disabled
// checker: every hook on it is a no-op.
func NewChecker(engine *sim.Engine, params Params, numRegions int) *Checker {
	if !params.Enabled {
		return nil
	}
	if params.MaxViolations <= 0 {
		params.MaxViolations = 64
	}
	k := &Checker{
		engine:   engine,
		params:   params,
		ledger:   make(map[uint64]centry),
		byFunc:   make(map[string]*counts),
		byRegion: make([]counts, numRegions),
	}
	if params.Interval > 0 {
		engine.Every(params.Interval, func() { k.evaluate(engine.Now()) })
	}
	return k
}

// Enabled reports whether the checker is live.
func (k *Checker) Enabled() bool { return k != nil }

// RegisterProbe adds a named structural check run at every evaluation.
// The probe returns one detail string per violation it found (empty
// slice or nil when the invariant holds). Probes run outside the
// checker's lock and may call its accessors.
func (k *Checker) RegisterProbe(name string, fn func(now sim.Time) []string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.probes = append(k.probes, probe{name: name, fn: fn})
	k.mu.Unlock()
}

// Note records ambient context (e.g. an active chaos fault); subsequent
// violations carry it so a breach reads with its fault environment.
func (k *Checker) Note(kind, detail string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	if detail != "" {
		kind += " " + detail
	}
	k.note = kind
	k.mu.Unlock()
}

// violate records one breach. Callers hold k.mu.
func (k *Checker) violate(name string, callID uint64, format string, args ...any) {
	k.nViol++
	if len(k.violations) >= k.params.MaxViolations {
		return
	}
	k.violations = append(k.violations, Violation{
		At:      k.engine.Now(),
		Name:    name,
		CallID:  callID,
		Detail:  fmt.Sprintf(format, args...),
		Context: k.note,
	})
}

func (k *Checker) fcounts(fn string) *counts {
	c, ok := k.byFunc[fn]
	if !ok {
		c = &counts{}
		k.byFunc[fn] = c
	}
	return c
}

// terminal books one terminal outcome and drops the ledger entry.
// Callers hold k.mu.
func (k *Checker) terminal(id uint64, e centry, out func(*counts)) {
	out(&k.total)
	out(k.fcounts(e.fn))
	if int(e.region) < len(k.byRegion) {
		out(&k.byRegion[e.region])
	}
	delete(k.ledger, id)
}

// traceOnly is the set of lifecycle kinds during which no ledger state
// changes hands; On returns on them before taking the lock.
const traceOnly = 1<<trace.KindRoute | 1<<trace.KindScheduled |
	1<<trace.KindQuotaDenied | 1<<trace.KindCongestionDenied |
	1<<trace.KindIsolationDenied | 1<<trace.KindExecStart |
	1<<trace.KindExecEnd | 1<<trace.KindDownstreamRetry |
	1<<trace.KindBackpressure | 1<<trace.KindSLOMiss | 1<<trace.KindEvacuated

// On feeds one lifecycle transition to the ledger: the kind → hook
// mapping. Every trace.Kind is either in traceOnly or a case below, so a
// kind added without deciding which it is shows up as an unmapped-kind
// violation instead of silently bypassing the ledger. Kinds carrying a
// worker identity encode it in arg as a trace.Ref.
func (k *Checker) On(c *function.Call, kind trace.Kind, arg int64) {
	if k == nil || uint64(traceOnly)>>kind&1 != 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	region, worker := trace.SplitRef(arg)
	switch kind {
	case trace.KindSubmit:
		k.submit(c)
	case trace.KindEnqueue:
		k.enqueue(c)
	case trace.KindLease:
		k.lease(c)
	case trace.KindLeaseExpired:
		k.settle(c, "expire")
	case trace.KindDispatch:
		k.dispatch(c, int(region), worker)
	case trace.KindComplete:
		k.complete(c, int(region), worker)
	case trace.KindHedgeDispatch:
		k.hedgeDispatch(c, int(region), worker)
	case trace.KindHedgeWin:
		k.hedgeWin(c, int(region), worker)
	case trace.KindHedgeCancel:
		k.hedgeCancel(c)
	case trace.KindNack:
		k.settle(c, "nack")
	case trace.KindRetry:
		k.retry(c)
	case trace.KindRelease:
		k.release(c)
	case trace.KindAck:
		k.ack(c)
	case trace.KindDeadLetter:
		k.deadLetter(c)
	case trace.KindExpired:
		k.expiredCall(c)
	case trace.KindShed:
		k.shed(c)
	case trace.KindBudgetExhausted:
		k.budgetExhausted(c)
	case trace.KindDropped:
		k.dropped(c)
	case trace.KindLost:
		k.lost(c)
	case trace.KindRecovered:
		k.recoverRequeue(c)
	case trace.KindMigrated:
		k.migrateOut(c)
	case trace.KindMigrateIn:
		k.migrateIn(c)
	case trace.KindDrainMigrated:
		k.drainMigrate(c)
	default:
		k.violate("unmapped-kind", c.ID, "lifecycle kind %d (%s) has no ledger mapping", kind, kind)
	}
}

// The six hooks of a call that succeeds first time, by name, for callers
// that drive the ledger directly rather than through a spine. The hooks
// below them all run under On's lock.

func (k *Checker) OnSubmit(c *function.Call)  { k.On(c, trace.KindSubmit, 0) }
func (k *Checker) OnEnqueue(c *function.Call) { k.On(c, trace.KindEnqueue, 0) }
func (k *Checker) OnLease(c *function.Call)   { k.On(c, trace.KindLease, 0) }
func (k *Checker) OnAck(c *function.Call)     { k.On(c, trace.KindAck, 0) }
func (k *Checker) OnDispatch(c *function.Call, region, worker int) {
	k.On(c, trace.KindDispatch, trace.Ref(cluster.RegionID(region), worker))
}
func (k *Checker) OnComplete(c *function.Call, region, worker int) {
	k.On(c, trace.KindComplete, trace.Ref(cluster.RegionID(region), worker))
}

// submit records a call entering the platform (an ID was assigned and
// the call joined a submitter batch).
func (k *Checker) submit(c *function.Call) {
	if _, dup := k.ledger[c.ID]; dup {
		k.violate("duplicate-call-id", c.ID, "id assigned twice (func %s)", c.Spec.Name)
	}
	e := centry{state: stSubmitted, region: int32(c.SourceRegion), fn: c.Spec.Name}
	k.ledger[c.ID] = e
	k.total.submitted++
	k.fcounts(e.fn).submitted++
	if int(e.region) < len(k.byRegion) {
		k.byRegion[e.region].submitted++
	}
}

// migrateOut records a call handed to another platform partition over
// the parallel fabric. Migration happens at routing time, so it is only
// legal from the submitted state (before durable persistence); the call
// becomes the destination partition's responsibility and leaves this
// ledger as a terminal.
func (k *Checker) migrateOut(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("migrate-unknown", c.ID, "migrated a call the ledger never saw")
		return
	}
	if e.state != stSubmitted {
		k.violate("migrate-from-"+stateName(e.state), c.ID,
			"migrated after durable persistence (func %s)", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.migratedOut++ })
}

// migrateIn records a call arriving from another platform partition:
// like a submission, it enters the ledger in the submitted state (the
// fabric delivers to this partition's routing layer, which persists it),
// but it is booked as a MigratedIn source so conservation distinguishes
// locally born work from immigrated work.
func (k *Checker) migrateIn(c *function.Call) {
	if _, dup := k.ledger[c.ID]; dup {
		k.violate("duplicate-call-id", c.ID, "migrated-in id already live (func %s)", c.Spec.Name)
	}
	e := centry{state: stSubmitted, region: int32(c.SourceRegion), fn: c.Spec.Name}
	k.ledger[c.ID] = e
	k.total.migratedIn++
	k.fcounts(e.fn).migratedIn++
	if int(e.region) < len(k.byRegion) {
		k.byRegion[e.region].migratedIn++
	}
}

// dropped records a routing failure before durable persistence — the
// only legal way a call disappears without an ack or dead-letter.
func (k *Checker) dropped(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("drop-unknown", c.ID, "dropped a call the ledger never saw")
		return
	}
	if e.state != stSubmitted {
		k.violate("drop-from-"+stateName(e.state), c.ID,
			"dropped after durable persistence (func %s)", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.dropped++ })
}

// enqueue records durable persistence in a DurableQ shard.
func (k *Checker) enqueue(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("enqueue-unknown", c.ID, "enqueued a call the ledger never saw")
		e = centry{region: int32(c.SourceRegion), fn: c.Spec.Name}
	}
	if ok && e.state != stSubmitted {
		k.violate("enqueue-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	e.state = stQueued
	k.ledger[c.ID] = e
}

// lease records a scheduler taking a lease (a DurableQ offer). Each
// lease must come from the queued state and carry a strictly increasing
// attempt number.
func (k *Checker) lease(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("lease-unknown", c.ID, "leased a call the ledger never saw")
		e = centry{region: int32(c.SourceRegion), fn: c.Spec.Name}
	}
	if ok && e.state != stQueued {
		k.violate("lease-from-"+stateName(e.state), c.ID, "func %s attempt %d", e.fn, c.Attempt)
	}
	if ok && int32(c.Attempt) <= e.attempt {
		k.violate("attempt-not-monotone", c.ID,
			"attempt %d after %d (func %s)", c.Attempt, e.attempt, e.fn)
	}
	e.state = stLeased
	e.attempt = int32(c.Attempt)
	k.ledger[c.ID] = e
}

// dispatch records a worker starting the call. Dispatch from any state
// but leased is a breach; dispatch while already running is the lease-
// exclusivity violation — the same call executing on two workers under
// one lease.
func (k *Checker) dispatch(c *function.Call, region, worker int) {
	ref := packRef(region, worker)
	e, ok := k.ledger[c.ID]
	if !ok {
		if _, orphan := k.orphaned[c.ID]; orphan {
			// A scheduler dispatching its copy of a call whose durable
			// record a crash destroyed or settled out from under it —
			// at-least-once overlap, not a breach.
			k.lateEvents++
			return
		}
		k.violate("dispatch-unknown", c.ID, "dispatched a call the ledger never saw")
		e = centry{region: int32(c.SourceRegion), fn: c.Spec.Name}
	}
	if ok && e.state != stLeased {
		if e.state == stRunning {
			k.violate("lease-exclusivity", c.ID,
				"dispatched to %s while running on %s (func %s)",
				refString(ref), refString(e.worker), e.fn)
		} else {
			k.violate("dispatch-from-"+stateName(e.state), c.ID, "func %s", e.fn)
		}
	}
	if k.LocalityCheck != nil {
		if msg := k.LocalityCheck(c, region, worker); msg != "" {
			k.violate("locality", c.ID, "%s", msg)
		}
	}
	if k.ExpiryDispatchCheck && c.IsExpired(k.engine.Now()) {
		k.violate("expired-dispatched", c.ID,
			"func %s dispatched %s past its deadline",
			c.Spec.Name, k.engine.Now()-c.Deadline)
	}
	e.state = stRunning
	e.worker = ref
	k.ledger[c.ID] = e
}

// complete records a worker finishing the call (success or failure —
// retry routing is the scheduler's decision). The worker identity
// disambiguates at-least-once overlap from real protocol breaches: a
// lease that expires mid-execution (e.g. its shard was unavailable, so
// renewal failed) requeues the call while the old execution still runs,
// and that execution's completion then arrives for an entry that has
// moved on — or for no entry at all. Completions whose worker does not
// match the ledger's current execution are tolerated and counted in
// LateEvents; a completion from the matching worker in any state but
// running is a genuine breach (e.g. one execution completing twice).
func (k *Checker) complete(c *function.Call, region, worker int) {
	ref := packRef(region, worker)
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.worker != ref {
		// A superseded execution finishing late: legal overlap.
		k.lateEvents++
		return
	}
	if e.state != stRunning {
		k.violate("complete-from-"+stateName(e.state), c.ID,
			"func %s on %s", e.fn, refString(ref))
	}
	e.state = stCompleted
	k.ledger[c.ID] = e
}

// hedgeDispatch records a speculative copy of a running call starting
// on a second worker. Legal only while the primary execution runs, and
// only one hedge may be live per call — a second concurrent hedge is the
// hedged twin of the lease-exclusivity breach.
func (k *Checker) hedgeDispatch(c *function.Call, region, worker int) {
	ref := packRef(region, worker)
	e, ok := k.ledger[c.ID]
	if !ok {
		if _, orphan := k.orphaned[c.ID]; orphan {
			k.lateEvents++
			return
		}
		k.violate("hedge-unknown", c.ID, "hedged a call the ledger never saw")
		return
	}
	if e.state != stRunning {
		k.violate("hedge-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	if e.hedge != 0 {
		k.violate("hedge-duplicate", c.ID,
			"hedged to %s while a hedge already runs on %s (func %s)",
			refString(ref), refString(e.hedge), e.fn)
	}
	if e.worker == ref {
		k.violate("hedge-same-worker", c.ID,
			"hedged onto the primary's own worker %s (func %s)", refString(ref), e.fn)
	}
	e.hedge = ref
	k.ledger[c.ID] = e
}

// hedgeWin records the speculative copy finishing first: the ledger's
// execution ref moves to the hedge worker so the ensuing completion and
// settle flow reads as the winner's. A win for a ref the ledger no
// longer tracks (the entry moved on under at-least-once overlap) is a
// tolerated late event.
func (k *Checker) hedgeWin(c *function.Call, region, worker int) {
	ref := packRef(region, worker)
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.hedge != ref {
		k.lateEvents++
		return
	}
	e.worker = ref
	e.hedge = 0
	k.ledger[c.ID] = e
}

// hedgeCancel records a speculative copy retired without winning (the
// primary finished first, the copy failed, or its primary's worker was
// evacuated).
func (k *Checker) hedgeCancel(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	e.hedge = 0
	k.ledger[c.ID] = e
}

// ack records the durable queue settling the call as done — the happy
// terminal state. The shard's ack is authoritative: under at-least-once
// overlap a superseded execution's ack can land while a redelivered
// attempt is queued, leased or running, which terminates the call early
// (tolerated, counted in LateEvents). Only an ack before the call was
// ever durably persisted is a breach.
func (k *Checker) ack(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	switch e.state {
	case stCompleted:
	case stSubmitted:
		k.violate("ack-from-submitted", c.ID, "func %s acked before persistence", e.fn)
	default:
		k.lateEvents++
	}
	k.terminal(c.ID, e, func(t *counts) { t.acked++ })
}

// settle records a lease ending without an ack: an explicit negative
// settle ("nack": execution failure, or a chaos evacuation returning the
// call to the queue) or a lease expiring ("expire": scheduler presumed
// dead).
func (k *Checker) settle(c *function.Call, kind string) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	switch e.state {
	case stLeased, stRunning, stCompleted:
	default:
		k.violate(kind+"-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	e.state = stSettling
	e.worker = 0
	e.hedge = 0
	k.ledger[c.ID] = e
}

// release records a scheduler gracefully handing a leased call back to
// its shard during a regional drain: the lease dissolves and the call is
// plain queued work again — no settle detour, no retry accounting.
func (k *Checker) release(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.state != stLeased {
		k.violate("release-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	e.state = stQueued
	e.worker = 0
	e.hedge = 0
	k.ledger[c.ID] = e
}

// drainMigrate records a drain controller moving a queued call's
// durable home to a peer region's shard. The ledger keys conservation on
// the submission region, which the move does not change, so the entry
// only needs to still be queued for the move to be legal.
func (k *Checker) drainMigrate(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.state != stQueued {
		k.violate("drain-migrate-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
}

// retry records a settled call pushed back onto the queue for another
// attempt.
func (k *Checker) retry(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.state != stSettling {
		k.violate("retry-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	e.state = stQueued
	k.ledger[c.ID] = e
}

// deadLetter records retry exhaustion — the unhappy terminal state.
func (k *Checker) deadLetter(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.state != stSettling {
		k.violate("deadletter-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.dead++; t.exhausted++ })
}

// budgetExhausted records a redelivery refused by an empty retry
// budget — a dead-letter with the `budget` disposition. Like retry
// exhaustion it is only legal from the settling state (the call was
// nacked or its lease expired, and the shard chose not to requeue it).
func (k *Checker) budgetExhausted(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	if e.state != stSettling {
		k.violate("budget-deadletter-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.dead++; t.budgetDenied++ })
}

// expiredCall records a deadline-expiry sweep dead-lettering a call.
// Sweeps legally catch a call queued (poll-time sweep), leased (the
// scheduler's dispatch-time sweep terminating its own lease), or
// settling (redelivery refused because the deadline passed) — but never
// running: an expired call on a worker means the sweeps failed.
func (k *Checker) expiredCall(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.lateEvents++
		return
	}
	switch e.state {
	case stQueued, stLeased, stSettling:
	default:
		k.violate("expire-sweep-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.dead++; t.expired++ })
}

// shed records queue-delay shedding dead-lettering a call. Shedding
// only targets leased calls sitting in a scheduler buffer; shedding a
// call the ledger has already settled is the "no call both executed to
// success and shed" breach (unless the ID was orphaned by a crash, which
// is at-least-once fallout).
func (k *Checker) shed(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		if _, orphan := k.orphaned[c.ID]; orphan {
			k.lateEvents++
			return
		}
		k.violate("shed-after-terminal", c.ID,
			"shed a call the ledger already settled (func %s)", c.Spec.Name)
		return
	}
	if e.state != stLeased {
		k.violate("shed-from-"+stateName(e.state), c.ID, "func %s", e.fn)
	}
	k.terminal(c.ID, e, func(t *counts) { t.dead++; t.shed++ })
}

// lost records a call destroyed by a component crash before settling —
// a submitter's unflushed batch dying with the process, or the torn tail
// of a shard's journal. A crash can catch a call in any live state, so
// any non-terminal entry settles to the lost terminal without complaint.
// A lost event with no ledger entry is the durability breach this engine
// exists to catch: every terminal call (acked, dead-lettered, dropped)
// has left the ledger, so "lost an unknown call" means a component
// destroyed work it had already settled — e.g. an acked call.
func (k *Checker) lost(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("lost-settled", c.ID,
			"component lost a call the ledger already settled (func %s)", c.Spec.Name)
		return
	}
	switch e.state {
	case stLeased, stRunning, stCompleted, stSettling:
		// A live copy may outlive the durable record (a scheduler buffer,
		// an execution already on a worker). Its later dispatch or
		// completion is orphaned at-least-once fallout, not a breach.
		k.markOrphaned(c.ID)
	}
	k.terminal(c.ID, e, func(t *counts) { t.lost++ })
}

// markOrphaned remembers an ID whose live copy may outlast its durable
// record. Callers hold k.mu.
func (k *Checker) markOrphaned(id uint64) {
	if k.orphaned == nil {
		k.orphaned = make(map[uint64]struct{})
	}
	k.orphaned[id] = struct{}{}
}

// recoverRequeue records journal replay re-enqueueing a call after a
// shard crash. The crash orphaned whatever state the call was in —
// queued, leased, even running on a worker that never heard about the
// crash — so any live state legally returns to queued; the worker ref
// resets so the orphaned execution's eventual completion reads as
// at-least-once overlap (a late event), not a breach. A requeue with no
// ledger entry is a resurrection: the call settled but its terminal
// record was in the journal's torn tail, so replay re-delivers it. The
// ack that already reached the client still stands — this is legal
// at-least-once duplication, booked under Resurrected so conservation
// stays closed.
func (k *Checker) recoverRequeue(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		e = centry{state: stQueued, region: int32(c.SourceRegion), fn: c.Spec.Name}
		k.ledger[c.ID] = e
		k.total.resurrected++
		k.fcounts(e.fn).resurrected++
		if int(e.region) < len(k.byRegion) {
			k.byRegion[e.region].resurrected++
		}
		k.lateEvents++
		return
	}
	switch e.state {
	case stLeased, stRunning, stCompleted, stSettling:
		// A pre-crash scheduler or worker still holds this call; its late
		// completion can settle the replayed copy out from under the
		// redelivery pipeline.
		k.markOrphaned(c.ID)
	}
	e.state = stQueued
	e.worker = 0
	e.hedge = 0
	k.ledger[c.ID] = e
}

// evaluate runs every registered probe. Probes run outside the lock so
// they can read the checker's accessors and the platform's components.
func (k *Checker) evaluate(now sim.Time) {
	k.mu.Lock()
	k.evals++
	probes := k.probes
	k.mu.Unlock()
	for _, p := range probes {
		for _, detail := range p.fn(now) {
			k.mu.Lock()
			k.violate(p.name, 0, "%s", detail)
			k.mu.Unlock()
		}
	}
}

// Final runs one last evaluation at the current virtual time and returns
// the retained violations. Call it after the simulation finishes.
func (k *Checker) Final() []Violation {
	if k == nil {
		return nil
	}
	k.evaluate(k.engine.Now())
	return k.Violations()
}

// Violations returns a copy of the retained violation records.
func (k *Checker) Violations() []Violation {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]Violation(nil), k.violations...)
}

// TotalViolations returns the full breach count, including records past
// MaxViolations.
func (k *Checker) TotalViolations() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nViol
}

// LateEvents counts tolerated post-terminal events from at-least-once
// execution overlap (see complete).
func (k *Checker) LateEvents() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lateEvents
}

// Evals returns how many probe evaluations have run.
func (k *Checker) Evals() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.evals
}

// Totals returns the platform-wide conservation snapshot.
func (k *Checker) Totals() Tally {
	if k == nil {
		return Tally{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	t := tally(k.total)
	t.InFlight = len(k.ledger)
	return t
}

// tally converts an internal counts record into the exported snapshot
// (InFlight is the caller's to fill).
func tally(c counts) Tally {
	return Tally{
		Submitted:    c.submitted,
		Acked:        c.acked,
		DeadLettered: c.dead,
		Dropped:      c.dropped,
		Lost:         c.lost,
		Resurrected:  c.resurrected,
		Exhausted:    c.exhausted,
		Expired:      c.expired,
		BudgetDenied: c.budgetDenied,
		Shed:         c.shed,
		MigratedOut:  c.migratedOut,
		MigratedIn:   c.migratedIn,
	}
}

// EachFunc visits per-function conservation tallies in sorted name
// order, with in-flight counts taken from the live ledger.
func (k *Checker) EachFunc(fn func(name string, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	inflight := make(map[string]int, len(k.byFunc))
	for _, e := range k.ledger {
		inflight[e.fn]++
	}
	names := make([]string, 0, len(k.byFunc))
	for name := range k.byFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	tallies := make([]Tally, len(names))
	for i, name := range names {
		tallies[i] = tally(*k.byFunc[name])
		tallies[i].InFlight = inflight[name]
	}
	k.mu.Unlock()
	for i, name := range names {
		fn(name, tallies[i])
	}
}

// EachRegion visits per-submission-region conservation tallies in
// region order.
func (k *Checker) EachRegion(fn func(region int, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	inflight := make([]int, len(k.byRegion))
	for _, e := range k.ledger {
		if int(e.region) < len(inflight) {
			inflight[e.region]++
		}
	}
	tallies := make([]Tally, len(k.byRegion))
	for i, c := range k.byRegion {
		tallies[i] = tally(c)
		tallies[i].InFlight = inflight[i]
	}
	k.mu.Unlock()
	for i := range tallies {
		fn(i, tallies[i])
	}
}

// Gap returns the conservation imbalance of a tally: zero when
// submitted + resurrected + migrated-in == acked + dead-lettered +
// dropped + lost + migrated-out + in-flight. The closure holds across
// crashes and restarts: a crash moves calls to Lost (never silently off
// the books), a torn-ack replay adds a Resurrected source to balance the
// call's second life, and a partitioned run's fabric handoffs appear as
// a matched MigratedOut terminal here and MigratedIn source there.
func (t Tally) Gap() int64 {
	return int64(t.Submitted) + int64(t.Resurrected) + int64(t.MigratedIn) -
		int64(t.Acked) - int64(t.DeadLettered) - int64(t.Dropped) -
		int64(t.Lost) - int64(t.MigratedOut) - int64(t.InFlight)
}
