package invariant

// The reference ledger: the map-backed checker this package had before
// per-call state moved onto the call's observer record, kept verbatim
// (types renamed, probe evaluation dropped) as the oracle the differential
// test and FuzzCheckerMatchesReference compare Checker against. It holds
// every in-flight call in ledger, keyed by ID, and counts the in-flight
// population by sweeping it.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

// refEntry is the ledger record of one in-flight call. Entries are deleted
// at terminal states, so the ledger's size tracks the in-flight count,
// not the run length.
type refEntry struct {
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

type counts struct {
	submitted, acked, dead, dropped, lost, resurrected uint64
	exhausted, expired, budgetDenied, shed             uint64
	migratedOut, migratedIn                            uint64
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

type refChecker struct {
	engine       *sim.Engine
	params       Params
	violationCap int

	LocalityCheck       func(c *function.Call, region, worker int) string
	ExpiryDispatchCheck bool

	mu         sync.Mutex
	ledger     map[uint64]refEntry
	byFunc     map[string]*counts
	byRegion   []counts
	total      counts
	violations []Violation
	nViol      uint64
	lateEvents uint64
	note       string
	orphaned   map[uint64]struct{}
}

func newRefChecker(engine *sim.Engine, params Params, numRegions int) *refChecker {
	return &refChecker{
		engine:       engine,
		params:       params,
		violationCap: maxViolations,
		ledger:       make(map[uint64]refEntry),
		byFunc:       make(map[string]*counts),
		byRegion:     make([]counts, numRegions),
	}
}

func (k *refChecker) Note(kind, detail string) {
	k.mu.Lock()
	if detail != "" {
		kind += " " + detail
	}
	k.note = kind
	k.mu.Unlock()
}

// violate records one breach. Callers hold k.mu.
func (k *refChecker) violate(name string, callID uint64, format string, args ...any) {
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

func (k *refChecker) fcounts(fn string) *counts {
	c, ok := k.byFunc[fn]
	if !ok {
		c = &counts{}
		k.byFunc[fn] = c
	}
	return c
}

// terminal books one terminal outcome and drops the ledger entry.
// Callers hold k.mu.
func (k *refChecker) terminal(id uint64, e refEntry, out func(*counts)) {
	out(&k.total)
	out(k.fcounts(e.fn))
	if int(e.region) < len(k.byRegion) {
		out(&k.byRegion[e.region])
	}
	delete(k.ledger, id)
}

// On feeds one lifecycle transition to the ledger: the kind → hook
// mapping. Every trace.Kind is either in traceOnly or a case below, so a
// kind added without deciding which it is shows up as an unmapped-kind
// violation instead of silently bypassing the ledger. Kinds carrying a
// worker identity encode it in arg as a trace.Ref.
func (k *refChecker) On(c *function.Call, kind trace.Kind, arg int64) {
	if uint64(traceOnly)>>kind&1 != 0 {
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

// submit records a call entering the platform (an ID was assigned and
// the call joined a submitter batch).
func (k *refChecker) submit(c *function.Call) {
	if _, dup := k.ledger[c.ID]; dup {
		k.violate("duplicate-call-id", c.ID, "id assigned twice (func %s)", c.Spec.Name)
	}
	e := refEntry{state: stSubmitted, region: int32(c.SourceRegion), fn: c.Spec.Name}
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
func (k *refChecker) migrateOut(c *function.Call) {
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
func (k *refChecker) migrateIn(c *function.Call) {
	if _, dup := k.ledger[c.ID]; dup {
		k.violate("duplicate-call-id", c.ID, "migrated-in id already live (func %s)", c.Spec.Name)
	}
	e := refEntry{state: stSubmitted, region: int32(c.SourceRegion), fn: c.Spec.Name}
	k.ledger[c.ID] = e
	k.total.migratedIn++
	k.fcounts(e.fn).migratedIn++
	if int(e.region) < len(k.byRegion) {
		k.byRegion[e.region].migratedIn++
	}
}

// dropped records a routing failure before durable persistence — the
// only legal way a call disappears without an ack or dead-letter.
func (k *refChecker) dropped(c *function.Call) {
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
func (k *refChecker) enqueue(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("enqueue-unknown", c.ID, "enqueued a call the ledger never saw")
		e = refEntry{region: int32(c.SourceRegion), fn: c.Spec.Name}
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
func (k *refChecker) lease(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		k.violate("lease-unknown", c.ID, "leased a call the ledger never saw")
		e = refEntry{region: int32(c.SourceRegion), fn: c.Spec.Name}
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
func (k *refChecker) dispatch(c *function.Call, region, worker int) {
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
		e = refEntry{region: int32(c.SourceRegion), fn: c.Spec.Name}
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
	if k.ExpiryDispatchCheck && c.Expired(k.engine.Now()) {
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
func (k *refChecker) complete(c *function.Call, region, worker int) {
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
func (k *refChecker) hedgeDispatch(c *function.Call, region, worker int) {
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
func (k *refChecker) hedgeWin(c *function.Call, region, worker int) {
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
func (k *refChecker) hedgeCancel(c *function.Call) {
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
func (k *refChecker) ack(c *function.Call) {
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
func (k *refChecker) settle(c *function.Call, kind string) {
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
func (k *refChecker) release(c *function.Call) {
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
func (k *refChecker) drainMigrate(c *function.Call) {
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
func (k *refChecker) retry(c *function.Call) {
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
func (k *refChecker) deadLetter(c *function.Call) {
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
func (k *refChecker) budgetExhausted(c *function.Call) {
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
func (k *refChecker) expiredCall(c *function.Call) {
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
func (k *refChecker) shed(c *function.Call) {
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
func (k *refChecker) lost(c *function.Call) {
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
func (k *refChecker) markOrphaned(id uint64) {
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
func (k *refChecker) recoverRequeue(c *function.Call) {
	e, ok := k.ledger[c.ID]
	if !ok {
		e = refEntry{state: stQueued, region: int32(c.SourceRegion), fn: c.Spec.Name}
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

// Violations returns a copy of the retained violation records.
func (k *refChecker) Violations() []Violation {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]Violation(nil), k.violations...)
}

// TotalViolations returns the full breach count, including records past
// maxViolations.
func (k *refChecker) TotalViolations() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nViol
}

// LateEvents counts tolerated post-terminal events from at-least-once
// execution overlap (see complete).
func (k *refChecker) LateEvents() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lateEvents
}

// Totals returns the platform-wide conservation snapshot.
func (k *refChecker) Totals() Tally {
	if k == nil {
		return Tally{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	t := tally(k.total)
	t.InFlight = len(k.ledger)
	return t
}

// EachFunc visits per-function conservation tallies in sorted name
// order, with in-flight counts taken from the live ledger.
func (k *refChecker) EachFunc(fn func(name string, t Tally)) {
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
func (k *refChecker) EachRegion(fn func(region int, t Tally)) {
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

// ledger is what the differential test drives and compares: both
// checkers implement it.
type ledger interface {
	On(c *function.Call, kind trace.Kind, arg int64)
	Note(kind, detail string)
	Violations() []Violation
	TotalViolations() uint64
	LateEvents() uint64
	Totals() Tally
	EachFunc(fn func(name string, t Tally))
	EachRegion(fn func(region int, t Tally))
}

// snapshot renders everything a ledger reports, violations from the
// given index on (the list only grows, so the caller skips the prefix it
// has already compared). A function the ledger has an entry for but has
// never booked a source or a terminal under is left out: the reference
// lists a function from its first booking, the checker from its first
// entry (which only an X-unknown breach can make earlier), and that is
// the one deliberate difference between them.
func snapshot(l ledger, from int) (string, int) {
	var b strings.Builder
	fmt.Fprintf(&b, "violations %d late %d totals %+v\n", l.TotalViolations(), l.LateEvents(), l.Totals())
	vs := l.Violations()
	for _, v := range vs[min(from, len(vs)):] {
		fmt.Fprintf(&b, "  %d|%s|%d|%s|%s\n", v.At, v.Name, v.CallID, v.Detail, v.Context)
	}
	l.EachFunc(func(name string, t Tally) {
		if t != (Tally{InFlight: t.InFlight}) {
			fmt.Fprintf(&b, "  func %s %+v\n", name, t)
		}
	})
	l.EachRegion(func(region int, t Tally) { fmt.Fprintf(&b, "  region %d %+v\n", region, t) })
	return b.String(), len(vs)
}

// ledgerWorld is one side of the differential run: two ledgers (two
// partitions' checkers) on one clock and a pool of calls, each with at
// most one hedge clone.
type ledgerWorld struct {
	e      *sim.Engine
	ks     [2]ledger
	calls  []*function.Call
	clones []*function.Call
}

const ledgerPool = 12

func newLedgerWorld(mk func(e *sim.Engine, p Params) ledger, p Params) *ledgerWorld {
	w := &ledgerWorld{e: sim.NewEngine(), calls: make([]*function.Call, ledgerPool), clones: make([]*function.Call, ledgerPool)}
	w.ks = [2]ledger{mk(w.e, p), mk(w.e, p)}
	// Five functions whose names arrive out of sorted order; region 3 is
	// outside the ledgers' three.
	specs := make([]*function.Spec, 5)
	for i := range specs {
		specs[i] = &function.Spec{Name: fmt.Sprintf("fn-%d", i*3%5)}
	}
	for i := range w.calls {
		w.calls[i] = &function.Call{Spec: specs[i%len(specs)], SourceRegion: cluster.RegionID(i % 4)}
		if i%3 == 0 {
			w.calls[i].Deadline = sim.Time(20 * time.Second)
		}
	}
	return w
}

// ledgerKinds is every kind On maps, one trace-only kind and one past the
// end of the kind space.
var ledgerKinds = [...]trace.Kind{
	trace.KindSubmit, trace.KindEnqueue, trace.KindLease, trace.KindLeaseExpired,
	trace.KindDispatch, trace.KindComplete, trace.KindHedgeDispatch, trace.KindHedgeWin,
	trace.KindHedgeCancel, trace.KindNack, trace.KindRetry, trace.KindRelease,
	trace.KindAck, trace.KindDeadLetter, trace.KindExpired, trace.KindShed,
	trace.KindBudgetExhausted, trace.KindDropped, trace.KindLost, trace.KindRecovered,
	trace.KindMigrated, trace.KindMigrateIn, trace.KindDrainMigrated,
	trace.KindExecStart, trace.NumKinds,
}

// runLedgersAgainstReference interprets prog as a lifecycle program over
// the call pool, applies every step to a world of Checkers and a world of
// refCheckers, and compares everything both report after each step. It
// returns the number of steps compared.
//
// The program reads the reference's state to steer (legal next steps) and
// to stay inside what a record riding on the call can express — the two
// ledgers are not equivalent outside it:
//
//   - a call is live in one ledger at a time (a record has one entry), so
//     a call changes ledger only when it is not live where it is, and the
//     other ledger only ever sees its strays;
//   - a call does not return to, and sends no orphan-tolerated stray to, a
//     ledger that orphaned it (the flag left with the record);
//   - a call neither ledger has opened is submitted in ID order (the
//     checker reads an ID at or below the last submitted as reuse; the
//     reference only while the first holder is live);
//   - a clone is made of a call that has a record to share.
func runLedgersAgainstReference(t testing.TB, prog []byte) int {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	params := Params{Enabled: true}
	violationCap := []int{6, 64, 256}[next()%3]
	locality := func(c *function.Call, region, worker int) string {
		if worker == 3 {
			return fmt.Sprintf("func %s on w-%d-%d outside its group", c.Spec.Name, region, worker)
		}
		return ""
	}
	expiry := next()%2 == 0
	got := newLedgerWorld(func(e *sim.Engine, p Params) ledger {
		k := NewChecker(e, p, 3)
		k.LocalityCheck, k.ExpiryDispatchCheck, k.violationCap = locality, expiry, violationCap
		return k
	}, params)
	want := newLedgerWorld(func(e *sim.Engine, p Params) ledger {
		k := newRefChecker(e, p, 3)
		k.LocalityCheck, k.ExpiryDispatchCheck, k.violationCap = locality, expiry, violationCap
		return k
	}, params)
	worlds := [...]*ledgerWorld{got, want}
	ref := func(h int) *refChecker { return want.ks[h].(*refChecker) }

	var (
		nextID  uint64
		maxSub  [2]uint64
		home    [ledgerPool]int // the ledger a call's events go to
		opener  [ledgerPool]int // the ledger that last opened an entry for it, -1 for none
		step    string
		emitted bool
		// compared is how many of each ledger's retained violations have
		// already been found equal.
		compared [2]int
	)
	for i := range opener {
		opener[i] = -1
	}
	// emit sends one event for call i to ledger h in both worlds, through
	// the primary or, if it has one and viaClone is set, the hedge clone.
	emit := func(h, i int, viaClone bool, kind trace.Kind, arg int64) {
		for _, w := range worlds {
			if w.calls[i].ID == 0 {
				nextID++
				for _, w := range worlds {
					w.calls[i].ID = nextID
				}
			}
			c := w.calls[i]
			if viaClone && w.clones[i] != nil {
				c = w.clones[i]
			}
			w.ks[h].On(c, kind, arg)
		}
		if _, ok := ref(h).ledger[want.calls[i].ID]; ok {
			opener[i] = h
		}
		step += fmt.Sprintf(" %s(call %d, ledger %d, arg %#x)", kind, want.calls[i].ID, h, arg)
		emitted = true
	}
	// opens reports whether the kind can create an entry for a call the
	// ledger does not hold.
	opens := func(kind trace.Kind) bool {
		switch kind {
		case trace.KindSubmit, trace.KindMigrateIn, trace.KindEnqueue, trace.KindLease,
			trace.KindDispatch, trace.KindRecovered:
			return true
		}
		return false
	}
	orphanTolerated := func(kind trace.Kind) bool {
		return kind == trace.KindDispatch || kind == trace.KindHedgeDispatch || kind == trace.KindShed
	}
	submit := func(i int) {
		h := home[i]
		if id := want.calls[i].ID; opener[i] != h && id != 0 && id <= maxSub[h] {
			return
		}
		emit(h, i, false, trace.KindSubmit, 0)
		maxSub[h] = max(maxSub[h], want.calls[i].ID)
	}
	lease := func(i int, bump bool) {
		if bump {
			for _, w := range worlds {
				w.calls[i].Attempt++
			}
		}
		emit(home[i], i, false, trace.KindLease, int64(want.calls[i].Attempt))
	}
	workerArg := func(n int) int64 { return trace.Ref(cluster.RegionID(n/4%2), n%4) }
	// unpack turns a ledger's packed worker ref back into an event arg.
	unpack := func(ref int64) int64 { return trace.Ref(cluster.RegionID(ref>>32-1), int(int32(ref))) }

	steps := 0
	for pos < len(prog) {
		op, i, n := next()%16, next()%ledgerPool, next()
		h := home[i]
		step, emitted = fmt.Sprintf("op %d:", op), false
		e, live := ref(h).ledger[want.calls[i].ID]
		if want.calls[i].ID == 0 {
			live = false
		}
		switch {
		case op == 0:
			submit(i)
		case op < 10: // the lifecycle's own next step
			switch {
			case !live:
				submit(i)
			case e.state == stSubmitted:
				switch n % 8 {
				case 0:
					emit(h, i, false, trace.KindDropped, 0)
				default:
					emit(h, i, false, trace.KindEnqueue, 0)
				}
			case e.state == stQueued:
				switch n % 8 {
				case 0:
					emit(h, i, false, trace.KindDrainMigrated, workerArg(n))
				case 1:
					emit(h, i, false, trace.KindExpired, 0)
				case 2:
					lease(i, false) // the attempt number does not advance
				default:
					lease(i, true)
				}
			case e.state == stLeased:
				switch n % 8 {
				case 0:
					emit(h, i, false, trace.KindRelease, 0)
				case 1:
					emit(h, i, false, trace.KindShed, 0)
				case 2:
					emit(h, i, false, trace.KindExpired, 0)
				default:
					emit(h, i, false, trace.KindDispatch, workerArg(n/8))
				}
			case e.state == stRunning && e.hedge != 0:
				switch n % 4 {
				case 0:
					emit(h, i, false, trace.KindNack, 0)
				case 1:
					emit(h, i, true, trace.KindHedgeWin, unpack(e.hedge))
				case 2:
					emit(h, i, false, trace.KindHedgeCancel, 0)
				default:
					emit(h, i, false, trace.KindComplete, unpack(e.worker))
				}
			case e.state == stRunning:
				switch n % 8 {
				case 0:
					emit(h, i, false, trace.KindNack, 0)
				case 1:
					emit(h, i, false, trace.KindLeaseExpired, 0)
				case 2, 3, 4:
					emit(h, i, true, trace.KindHedgeDispatch, workerArg(n/8))
				default:
					emit(h, i, n&8 != 0, trace.KindComplete, unpack(e.worker))
				}
			case e.state == stCompleted:
				switch n % 4 {
				case 0:
					emit(h, i, false, trace.KindNack, 0)
				default:
					emit(h, i, false, trace.KindAck, 0)
				}
			default: // settling
				switch n % 8 {
				case 0:
					emit(h, i, false, trace.KindDeadLetter, 0)
				case 1:
					emit(h, i, false, trace.KindBudgetExhausted, 0)
				case 2:
					emit(h, i, false, trace.KindExpired, 0)
				default:
					emit(h, i, false, trace.KindRetry, 0)
				}
			}
		case op < 12: // any event at all, legal or not
			kind := ledgerKinds[n%len(ledgerKinds)]
			if kind == trace.KindSubmit {
				submit(i)
			} else {
				emit(h, i, n&64 != 0, kind, workerArg(next()))
			}
		case op == 12: // hedge: the clone is a value copy made now
			if opener[i] >= 0 {
				for _, w := range worlds {
					cl := *w.calls[i]
					w.clones[i] = &cl
				}
				step += fmt.Sprintf(" clone(call %d)", want.calls[i].ID)
			}
		case op == 13: // crash fallout
			if n%4 == 0 {
				emit(h, i, false, trace.KindLost, 0)
			} else {
				emit(h, i, false, trace.KindRecovered, 0)
			}
		case op == 14 && n < 128: // fabric migration to the other ledger
			if n%4 != 0 {
				emit(h, i, false, trace.KindMigrated, int64(1-h))
			}
			_, live = ref(h).ledger[want.calls[i].ID]
			_, orphanedThere := ref(1 - h).orphaned[want.calls[i].ID]
			if n%4 != 1 && !live && !orphanedThere && want.calls[i].ID != 0 {
				home[i] = 1 - h
				for _, w := range worlds {
					w.calls[i].SourceRegion = cluster.RegionID(n / 4 % 4)
				}
				emit(1-h, i, false, trace.KindMigrateIn, 0)
			}
		case op == 14: // a stray reaching the ledger the call is not in
			kind := ledgerKinds[n%len(ledgerKinds)]
			_, orphanedThere := ref(1 - h).orphaned[want.calls[i].ID]
			if !opens(kind) && !(orphanedThere && orphanTolerated(kind)) {
				emit(1-h, i, n&64 != 0, kind, workerArg(next()))
			}
		default:
			for _, w := range worlds {
				if n%2 == 0 {
					w.e.RunFor(time.Duration(n) * 100 * time.Millisecond)
				} else {
					w.ks[n/2%2].Note("chaos", fmt.Sprint(n))
				}
			}
			step += " clock/note"
		}
		if !emitted {
			continue
		}
		steps++
		for h := range got.ks {
			g, n := snapshot(got.ks[h], compared[h])
			w, m := snapshot(want.ks[h], compared[h])
			if g != w || n != m {
				t.Fatalf("step %d (%s): ledger %d reports\n%s\nreference\n%s", steps, step, h, g, w)
			}
			compared[h] = n
		}
	}
	return steps
}

func TestCheckerMatchesReference(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 48; seed++ {
		prog := make([]byte, 4096)
		rand.New(rand.NewSource(seed)).Read(prog)
		steps += runLedgersAgainstReference(t, prog)
	}
	if steps < 40_000 {
		t.Fatalf("only %d random steps compared, want at least 40000", steps)
	}
}

// FuzzCheckerMatchesReference explores lifecycle programs beyond the
// seeded ones; testdata/fuzz holds the checked-in corpus.
func FuzzCheckerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runLedgersAgainstReference(t, prog) })
}
