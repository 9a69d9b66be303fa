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
	"slices"
	"strings"
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
}

// maxViolations bounds the retained violation records; the total count
// keeps incrementing past it.
const maxViolations int = 64

// DefaultParams checks every simulated minute.
func DefaultParams() Params {
	return Params{Interval: time.Minute}
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

var stateNames = [...]string{"submitted", "queued", "leased", "running", "completed", "settling"}

func stateName(s uint8) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// The ledger entry of a call is the trace.Ledger on the observer record
// the call carries (function.Call.Obs), so a transition reaches it through
// the call with no lookup. Worker is the packed ref of the execution while
// running. Hedge is the packed ref of a live speculative (hedged) copy's
// worker, zero when none: a hedge never creates a second entry — the clone
// shares the call's record — so conservation closes with no new terms, and
// the field only tracks which extra worker may legally produce the winning
// completion. Orphaned marks a call whose durable record diverged from a
// live copy a scheduler or worker may still hold: booked lost while leased
// or running (a crashed shard's torn tail), or replay-requeued while a
// pre-crash execution was still in flight. Later events on it are
// at-least-once fallout — tolerated, never re-entered into the ledger.

// packRef encodes a worker identity, biased by one region so that worker
// (0,0) never collides with the zero value an entry's Worker uses as its
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
// The checker keeps its counters in this form, InFlight included: it moves
// at the transitions that open and retire an entry, so a snapshot never
// visits the in-flight population.
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

// fcounts is one function's tally. An entry points at it from the moment
// it opens, which also makes it the mark of whose entry that is: a record
// arriving from another partition's checker is not in this ledger.
type fcounts struct {
	Tally
	name string
	k    *Checker
}

type probe struct {
	name string
	fn   func(now sim.Time) []string
}

// Checker is the invariant engine. All methods are safe on a nil
// receiver (they no-op), so components hold plain fields and call hooks
// unconditionally. The mutex guards what the snapshot methods read that no
// call owns — tallies, violations, the late-event and evaluation counts,
// the note — and is taken at sources, terminals and breaches, never for a
// transition that only moves a call's own entry. Entries are read by On
// alone, on the engine's goroutine; an HTTP handler is ordered against the
// engine by the server mutex that brackets Engine.RunFor and every handler.
type Checker struct {
	engine *sim.Engine
	// violationCap is maxViolations; tests vary it.
	violationCap int

	// LocalityCheck, when set (by core), validates a dispatch against the
	// function's locality group at dispatch time; it returns "" when the
	// placement is legal.
	LocalityCheck func(c *function.Call, region, worker int) string

	// ExpiryDispatchCheck, when set (by core, iff expiry sweeping is on),
	// makes dispatching a call past its deadline a violation: the sweeps
	// promise expired calls never reach a worker. Off by default because
	// without sweeping, dispatching an expired call is the platform's
	// normal behavior (it completes as an SLO miss).
	ExpiryDispatchCheck bool

	// lastID is the highest call ID submitted here. Submitters draw IDs
	// from one strictly increasing per-platform sequence, so an ID at or
	// below it on a call this ledger has never seen was assigned twice.
	lastID uint64

	mu         sync.Mutex
	byFunc     map[string]*fcounts
	funcs      []*fcounts // byFunc's values in name order
	byRegion   []Tally
	total      Tally
	violations []Violation
	nViol      uint64
	lateEvents uint64
	evals      uint64
	note       string

	probes []probe
}

// NewChecker returns a checker for a platform with numRegions regions.
// When params.Enabled is false it returns nil, which is the disabled
// checker: every hook on it is a no-op.
func NewChecker(engine *sim.Engine, params Params, numRegions int) *Checker {
	if !params.Enabled {
		return nil
	}
	k := &Checker{
		engine:       engine,
		violationCap: maxViolations,
		byFunc:       make(map[string]*fcounts),
		byRegion:     make([]Tally, numRegions),
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

// violate records one breach.
func (k *Checker) violate(name string, callID uint64, format string, args ...any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nViol++
	if len(k.violations) >= k.violationCap {
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

// late counts one tolerated event of at-least-once overlap.
func (k *Checker) late() {
	k.mu.Lock()
	k.lateEvents++
	k.mu.Unlock()
}

// fcounts returns the function's tally, creating it on first use. Callers
// hold k.mu. funcs is replaced, not edited, so EachFunc can walk the slice
// it read under the lock after releasing it.
func (k *Checker) fcounts(fn string) *fcounts {
	fc, ok := k.byFunc[fn]
	if !ok {
		fc = &fcounts{name: fn, k: k}
		k.byFunc[fn] = fc
		i, _ := slices.BinarySearchFunc(k.funcs, fn, func(f *fcounts, name string) int {
			return strings.Compare(f.name, name)
		})
		k.funcs = slices.Insert(slices.Clone(k.funcs), i, fc)
	}
	return fc
}

// entry returns c's entry if it belongs to this ledger, and whether it is
// live. A nil entry is a call this ledger has never seen; one that is not
// live has reached a terminal here.
func (k *Checker) entry(c *function.Call) (e *trace.Ledger, live bool) {
	rec := trace.RecordOf(c)
	if rec == nil {
		return nil, false
	}
	if fc, _ := rec.Ledger.Counts.(*fcounts); fc == nil || fc.k != k {
		return nil, false
	}
	return &rec.Ledger, rec.Ledger.Live
}

// book applies f — a source or a terminal, nil for neither — to the three
// tallies an entry counts in, and moves their live counts by d. Callers
// hold k.mu.
func (k *Checker) book(e *trace.Ledger, d int, f func(*Tally)) {
	ts := [...]*Tally{&k.total, &e.Counts.(*fcounts).Tally, nil}
	if int(e.Region) < len(k.byRegion) {
		ts[2] = &k.byRegion[e.Region]
	}
	for _, t := range ts {
		if t != nil {
			t.InFlight += d
			if f != nil {
				f(t)
			}
		}
	}
}

// open makes c's entry live in the given state and books its source, if
// it has one. e and live are what entry returned: a call the ledger never
// saw gets its entry here — on the observer record, which open allocates
// when no other consumer has — with the function's tally resolved once; a
// call back from a terminal (a resurrection) reopens the entry it had.
func (k *Checker) open(c *function.Call, e *trace.Ledger, live bool, state uint8, source func(*Tally)) *trace.Ledger {
	k.mu.Lock()
	if e == nil {
		e = &trace.Attach(c).Ledger
		e.Counts, e.Orphaned = k.fcounts(c.Spec.Name), false // another ledger's flag does not carry
	}
	if live {
		k.book(e, -1, nil) // a duplicate overwrites the entry it collides with
	}
	*e = trace.Ledger{Counts: e.Counts, Region: int32(c.SourceRegion), State: state, Live: true, Orphaned: e.Orphaned}
	k.book(e, 1, source)
	k.mu.Unlock()
	return e
}

// terminal books one terminal outcome and retires the entry.
func (k *Checker) terminal(e *trace.Ledger, out func(*Tally)) {
	k.mu.Lock()
	k.book(e, -1, out)
	k.mu.Unlock()
	e.Live = false
}

func fname(e *trace.Ledger) string { return e.Counts.(*fcounts).name }

// traceOnly is the set of lifecycle kinds during which no ledger state
// changes hands; On returns on them at once.
const traceOnly = 1<<trace.KindRoute | 1<<trace.KindScheduled |
	1<<trace.KindQuotaDenied | 1<<trace.KindCongestionDenied |
	1<<trace.KindIsolationDenied | 1<<trace.KindExecStart |
	1<<trace.KindExecEnd | 1<<trace.KindDownstreamRetry |
	1<<trace.KindBackpressure | 1<<trace.KindSLOMiss | 1<<trace.KindEvacuated

// lateOnMiss is the set of kinds that, arriving for a call with no live
// entry, are at-least-once fallout and nothing more: a superseded
// execution or a stale scheduler reporting on a call the ledger has
// already retired. On counts them in LateEvents and goes no further.
const lateOnMiss = 1<<trace.KindComplete | 1<<trace.KindHedgeWin | 1<<trace.KindHedgeCancel |
	1<<trace.KindAck | 1<<trace.KindNack | 1<<trace.KindLeaseExpired | 1<<trace.KindRetry |
	1<<trace.KindRelease | 1<<trace.KindDrainMigrated | 1<<trace.KindDeadLetter |
	1<<trace.KindBudgetExhausted | 1<<trace.KindExpired

// On feeds one lifecycle transition to the ledger: the kind → hook
// mapping. Every trace.Kind is either in traceOnly or a case below, so a
// kind added without deciding which it is shows up as an unmapped-kind
// violation instead of silently bypassing the ledger. Kinds carrying a
// worker identity encode it in arg as a trace.Ref.
func (k *Checker) On(c *function.Call, kind trace.Kind, arg int64) {
	if k == nil || uint64(traceOnly)>>kind&1 != 0 {
		return
	}
	e, live := k.entry(c)
	if !live && uint64(lateOnMiss)>>kind&1 != 0 {
		k.late()
		return
	}
	region, worker := trace.SplitRef(arg)
	ref := packRef(int(region), worker)
	switch kind {
	case trace.KindSubmit:
		k.submit(c, e, live)
	case trace.KindEnqueue:
		k.enqueue(c, e, live)
	case trace.KindLease:
		k.lease(c, e, live)
	case trace.KindLeaseExpired:
		k.settle(c, e, "expire")
	case trace.KindDispatch:
		k.dispatch(c, e, live, int(region), worker)
	case trace.KindComplete:
		k.complete(c, e, ref)
	case trace.KindHedgeDispatch:
		k.hedgeDispatch(c, e, live, ref)
	case trace.KindHedgeWin:
		k.hedgeWin(e, ref)
	case trace.KindHedgeCancel:
		// A speculative copy retired without winning: the primary finished
		// first, the copy failed, or its primary's worker was evacuated.
		e.Hedge = 0
	case trace.KindNack:
		k.settle(c, e, "nack")
	case trace.KindRetry:
		k.retry(c, e)
	case trace.KindRelease:
		k.release(c, e)
	case trace.KindAck:
		k.ack(c, e)
	case trace.KindDeadLetter:
		k.deadLetter(c, e)
	case trace.KindExpired:
		k.expiredCall(c, e)
	case trace.KindShed:
		k.shed(c, e, live)
	case trace.KindBudgetExhausted:
		k.budgetExhausted(c, e)
	case trace.KindDropped:
		k.leave(c, e, live, "drop", "dropped", func(t *Tally) { t.Dropped++ })
	case trace.KindLost:
		k.lost(c, e, live)
	case trace.KindRecovered:
		k.recoverRequeue(c, e, live)
	case trace.KindMigrated:
		k.leave(c, e, live, "migrate", "migrated", func(t *Tally) { t.MigratedOut++ })
	case trace.KindMigrateIn:
		k.migrateIn(c, e, live)
	case trace.KindDrainMigrated:
		k.drainMigrate(c, e)
	default:
		k.violate("unmapped-kind", c.ID, "lifecycle kind %d (%s) has no ledger mapping", kind, kind)
	}
}

// The six hooks of a call that succeeds first time, by name, for callers
// that drive the ledger directly rather than through a spine. Every hook
// below them takes what entry returned for the call: its entry in this
// ledger (nil if it has none) and whether that entry is live.

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

// want reports a transition taken from a state other than the given
// ones as the violation "<verb>-from-<state>".
func (k *Checker) want(verb string, c *function.Call, e *trace.Ledger, states ...uint8) {
	if !slices.Contains(states, e.State) {
		k.violate(verb+"-from-"+stateName(e.State), c.ID, "func %s", fname(e))
	}
}

// submit records a call entering the platform (an ID was assigned and
// the call joined a submitter batch).
func (k *Checker) submit(c *function.Call, e *trace.Ledger, live bool) {
	if live || e == nil && c.ID <= k.lastID {
		k.violate("duplicate-call-id", c.ID, "id assigned twice (func %s)", c.Spec.Name)
	}
	k.lastID = max(k.lastID, c.ID)
	k.open(c, e, live, stSubmitted, func(t *Tally) { t.Submitted++ })
}

// leave records one of the two terminals that are only legal before
// durable persistence, from the submitted state: a fabric migration
// (verb "migrate": the QueueLB handed the call to another platform
// partition at routing time, and it is that partition's responsibility
// from here) or a drop (verb "drop": a routing failure, the only legal
// way a call disappears without an ack or dead-letter).
func (k *Checker) leave(c *function.Call, e *trace.Ledger, live bool, verb, past string, out func(*Tally)) {
	if !live {
		k.violate(verb+"-unknown", c.ID, "%s a call the ledger never saw", past)
		return
	}
	if e.State != stSubmitted {
		k.violate(verb+"-from-"+stateName(e.State), c.ID,
			"%s after durable persistence (func %s)", past, fname(e))
	}
	k.terminal(e, out)
}

// migrateIn records a call arriving from another platform partition:
// like a submission, it enters the ledger in the submitted state (the
// fabric delivers to this partition's routing layer, which persists it),
// but it is booked as a MigratedIn source so conservation distinguishes
// locally born work from immigrated work. The record it arrives on still
// carries the source partition's retired entry; open rebinds it here.
func (k *Checker) migrateIn(c *function.Call, e *trace.Ledger, live bool) {
	if live {
		k.violate("duplicate-call-id", c.ID, "migrated-in id already live (func %s)", c.Spec.Name)
	}
	k.open(c, e, live, stSubmitted, func(t *Tally) { t.MigratedIn++ })
}

// enqueue records durable persistence in a DurableQ shard.
func (k *Checker) enqueue(c *function.Call, e *trace.Ledger, live bool) {
	if !live {
		k.violate("enqueue-unknown", c.ID, "enqueued a call the ledger never saw")
		e = k.open(c, e, false, stQueued, nil)
	} else {
		k.want("enqueue", c, e, stSubmitted)
	}
	e.State = stQueued
}

// lease records a scheduler taking a lease (a DurableQ offer). Each
// lease must come from the queued state and carry a strictly increasing
// attempt number.
func (k *Checker) lease(c *function.Call, e *trace.Ledger, live bool) {
	if !live {
		k.violate("lease-unknown", c.ID, "leased a call the ledger never saw")
		e = k.open(c, e, false, stLeased, nil)
	} else {
		if e.State != stQueued {
			k.violate("lease-from-"+stateName(e.State), c.ID, "func %s attempt %d", fname(e), c.Attempt)
		}
		if int32(c.Attempt) <= e.Attempt {
			k.violate("attempt-not-monotone", c.ID,
				"attempt %d after %d (func %s)", c.Attempt, e.Attempt, fname(e))
		}
	}
	e.State = stLeased
	e.Attempt = int32(c.Attempt)
}

// dispatch records a worker starting the call. Dispatch from any state
// but leased is a breach; dispatch while already running is the lease-
// exclusivity violation — the same call executing on two workers under
// one lease.
func (k *Checker) dispatch(c *function.Call, e *trace.Ledger, live bool, region, worker int) {
	ref := packRef(region, worker)
	if !live {
		if e != nil && e.Orphaned {
			// A scheduler dispatching its copy of a call whose durable
			// record a crash destroyed or settled out from under it —
			// at-least-once overlap, not a breach.
			k.late()
			return
		}
		k.violate("dispatch-unknown", c.ID, "dispatched a call the ledger never saw")
		e = k.open(c, e, false, stRunning, nil)
	} else if e.State != stLeased {
		if e.State == stRunning {
			k.violate("lease-exclusivity", c.ID,
				"dispatched to %s while running on %s (func %s)",
				refString(ref), refString(e.Worker), fname(e))
		} else {
			k.violate("dispatch-from-"+stateName(e.State), c.ID, "func %s", fname(e))
		}
	}
	if k.LocalityCheck != nil {
		if msg := k.LocalityCheck(c, region, worker); msg != "" {
			k.violate("locality", c.ID, "%s", msg)
		}
	}
	if k.ExpiryDispatchCheck && c.Expired(k.engine.Now()) {
		k.violate("expired-dispatched", c.ID,
			"func %s dispatched %s past its deadline",
			c.Spec.Name, k.engine.Now()-c.Deadline)
	}
	e.State = stRunning
	e.Worker = ref
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
func (k *Checker) complete(c *function.Call, e *trace.Ledger, ref int64) {
	if e.Worker != ref {
		// A superseded execution finishing late: legal overlap.
		k.late()
		return
	}
	if e.State != stRunning {
		k.violate("complete-from-"+stateName(e.State), c.ID,
			"func %s on %s", fname(e), refString(ref))
	}
	e.State = stCompleted
}

// hedgeDispatch records a speculative copy of a running call starting
// on a second worker. Legal only while the primary execution runs, and
// only one hedge may be live per call — a second concurrent hedge is the
// hedged twin of the lease-exclusivity breach.
func (k *Checker) hedgeDispatch(c *function.Call, e *trace.Ledger, live bool, ref int64) {
	if !live {
		if e != nil && e.Orphaned {
			k.late()
			return
		}
		k.violate("hedge-unknown", c.ID, "hedged a call the ledger never saw")
		return
	}
	k.want("hedge", c, e, stRunning)
	if e.Hedge != 0 {
		k.violate("hedge-duplicate", c.ID,
			"hedged to %s while a hedge already runs on %s (func %s)",
			refString(ref), refString(e.Hedge), fname(e))
	}
	if e.Worker == ref {
		k.violate("hedge-same-worker", c.ID,
			"hedged onto the primary's own worker %s (func %s)", refString(ref), fname(e))
	}
	e.Hedge = ref
}

// hedgeWin records the speculative copy finishing first: the ledger's
// execution ref moves to the hedge worker so the ensuing completion and
// settle flow reads as the winner's. A win for a ref the ledger no
// longer tracks (the entry moved on under at-least-once overlap) is a
// tolerated late event.
func (k *Checker) hedgeWin(e *trace.Ledger, ref int64) {
	if e.Hedge != ref {
		k.late()
		return
	}
	e.Worker = ref
	e.Hedge = 0
}

// ack records the durable queue settling the call as done — the happy
// terminal state. The shard's ack is authoritative: under at-least-once
// overlap a superseded execution's ack can land while a redelivered
// attempt is queued, leased or running, which terminates the call early
// (tolerated, counted in LateEvents). Only an ack before the call was
// ever durably persisted is a breach.
func (k *Checker) ack(c *function.Call, e *trace.Ledger) {
	switch e.State {
	case stCompleted:
	case stSubmitted:
		k.violate("ack-from-submitted", c.ID, "func %s acked before persistence", fname(e))
	default:
		k.late()
	}
	k.terminal(e, func(t *Tally) { t.Acked++ })
}

// settle records a lease ending without an ack: an explicit negative
// settle ("nack": execution failure, or a chaos evacuation returning the
// call to the queue) or a lease expiring ("expire": scheduler presumed
// dead).
func (k *Checker) settle(c *function.Call, e *trace.Ledger, kind string) {
	k.want(kind, c, e, stLeased, stRunning, stCompleted)
	e.State, e.Worker, e.Hedge = stSettling, 0, 0
}

// release records a scheduler gracefully handing a leased call back to
// its shard during a regional drain: the lease dissolves and the call is
// plain queued work again — no settle detour, no retry accounting.
func (k *Checker) release(c *function.Call, e *trace.Ledger) {
	k.want("release", c, e, stLeased)
	e.State, e.Worker, e.Hedge = stQueued, 0, 0
}

// drainMigrate records a drain controller moving a queued call's
// durable home to a peer region's shard. The ledger keys conservation on
// the submission region, which the move does not change, so the entry
// only needs to still be queued for the move to be legal.
func (k *Checker) drainMigrate(c *function.Call, e *trace.Ledger) {
	k.want("drain-migrate", c, e, stQueued)
}

// retry records a settled call pushed back onto the queue for another
// attempt.
func (k *Checker) retry(c *function.Call, e *trace.Ledger) {
	k.want("retry", c, e, stSettling)
	e.State = stQueued
}

// deadLetter records retry exhaustion — the unhappy terminal state.
func (k *Checker) deadLetter(c *function.Call, e *trace.Ledger) {
	k.want("deadletter", c, e, stSettling)
	k.terminal(e, func(t *Tally) { t.DeadLettered++; t.Exhausted++ })
}

// budgetExhausted records a redelivery refused by an empty retry
// budget — a dead-letter with the `budget` disposition. Like retry
// exhaustion it is only legal from the settling state (the call was
// nacked or its lease expired, and the shard chose not to requeue it).
func (k *Checker) budgetExhausted(c *function.Call, e *trace.Ledger) {
	k.want("budget-deadletter", c, e, stSettling)
	k.terminal(e, func(t *Tally) { t.DeadLettered++; t.BudgetDenied++ })
}

// expiredCall records a deadline-expiry sweep dead-lettering a call.
// Sweeps legally catch a call queued (poll-time sweep), leased (the
// scheduler's dispatch-time sweep terminating its own lease), or
// settling (redelivery refused because the deadline passed) — but never
// running: an expired call on a worker means the sweeps failed.
func (k *Checker) expiredCall(c *function.Call, e *trace.Ledger) {
	k.want("expire-sweep", c, e, stQueued, stLeased, stSettling)
	k.terminal(e, func(t *Tally) { t.DeadLettered++; t.Expired++ })
}

// shed records queue-delay shedding dead-lettering a call. Shedding
// only targets leased calls sitting in a scheduler buffer; shedding a
// call the ledger has already settled is the "no call both executed to
// success and shed" breach (unless the call was orphaned by a crash,
// which is at-least-once fallout).
func (k *Checker) shed(c *function.Call, e *trace.Ledger, live bool) {
	if !live {
		if e != nil && e.Orphaned {
			k.late()
			return
		}
		k.violate("shed-after-terminal", c.ID,
			"shed a call the ledger already settled (func %s)", c.Spec.Name)
		return
	}
	k.want("shed", c, e, stLeased)
	k.terminal(e, func(t *Tally) { t.DeadLettered++; t.Shed++ })
}

// lost records a call destroyed by a component crash before settling —
// a submitter's unflushed batch dying with the process, or the torn tail
// of a shard's journal. A crash can catch a call in any live state, so
// any non-terminal entry settles to the lost terminal without complaint.
// A lost event with no live entry is the durability breach this engine
// exists to catch: every terminal call (acked, dead-lettered, dropped)
// has left the ledger, so "lost an unknown call" means a component
// destroyed work it had already settled — e.g. an acked call.
func (k *Checker) lost(c *function.Call, e *trace.Ledger, live bool) {
	if !live {
		k.violate("lost-settled", c.ID,
			"component lost a call the ledger already settled (func %s)", c.Spec.Name)
		return
	}
	switch e.State {
	case stLeased, stRunning, stCompleted, stSettling:
		// A live copy may outlive the durable record (a scheduler buffer,
		// an execution already on a worker). Its later dispatch or
		// completion is orphaned at-least-once fallout, not a breach.
		e.Orphaned = true
	}
	k.terminal(e, func(t *Tally) { t.Lost++ })
}

// recoverRequeue records journal replay re-enqueueing a call after a
// shard crash. The crash orphaned whatever state the call was in —
// queued, leased, even running on a worker that never heard about the
// crash — so any live state legally returns to queued; the worker ref
// resets so the orphaned execution's eventual completion reads as
// at-least-once overlap (a late event), not a breach. A requeue with no
// live entry is a resurrection: the call settled but its terminal
// record was in the journal's torn tail, so replay re-delivers it. The
// ack that already reached the client still stands — this is legal
// at-least-once duplication, booked under Resurrected so conservation
// stays closed.
func (k *Checker) recoverRequeue(c *function.Call, e *trace.Ledger, live bool) {
	if !live {
		k.open(c, e, false, stQueued, func(t *Tally) { t.Resurrected++ })
		k.late()
		return
	}
	switch e.State {
	case stLeased, stRunning, stCompleted, stSettling:
		// A pre-crash scheduler or worker still holds this call; its late
		// completion can settle the replayed copy out from under the
		// redelivery pipeline.
		e.Orphaned = true
	}
	e.State, e.Worker, e.Hedge = stQueued, 0, 0
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
			k.violate(p.name, 0, "%s", detail)
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
// maxViolations.
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
	return k.total
}

// EachFunc visits per-function conservation tallies in sorted name
// order.
func (k *Checker) EachFunc(fn func(name string, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	funcs := k.funcs
	tallies := make([]Tally, len(funcs))
	for i, fc := range funcs {
		tallies[i] = fc.Tally
	}
	k.mu.Unlock()
	for i, fc := range funcs {
		fn(fc.name, tallies[i])
	}
}

// EachRegion visits per-submission-region conservation tallies in
// region order.
func (k *Checker) EachRegion(fn func(region int, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	tallies := slices.Clone(k.byRegion)
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
