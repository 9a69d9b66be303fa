// Package scheduler implements the XFaaS scheduler (paper §4.4): it polls
// DurableQs — across regions, per the Global Traffic Conductor's traffic
// matrix — into per-function FuncBuffers ordered by criticality then
// deadline, selects the most suitable calls subject to quota (central
// rate limiter, opportunistic scaling), adaptive concurrency control
// (AIMD, slow start, concurrency limits) and Bell–LaPadula argument-flow
// checks, moves them through a RunQ with flow control, dispatches to the
// WorkerLB, and ACKs/NACKs the owning DurableQ on completion.
package scheduler

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/downstream"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/gtc"
	"xfaas/internal/isolation"
	"xfaas/internal/lifecycle"
	"xfaas/internal/policy"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"

	"errors"
)

// Params configure a scheduler.
type Params struct {
	// PollInterval is the DurableQ polling and scheduling cadence.
	PollInterval time.Duration
	// Policy names the scheduling policy (config.PolicyNames); the empty
	// name is the default push policy, whose seeded output is
	// byte-identical to the pre-policy scheduler.
	Policy string
	// PolicyFactory, when set, overrides Policy with a custom
	// implementation (test probes, experimental policies).
	PolicyFactory func() policy.Policy
}

const (
	// runQLimit is the flow-control threshold: polling and buffer→RunQ
	// movement pause while the RunQ is this deep (slow workers). The RunQ
	// is a short staging buffer (the paper slows FuncBuffer→RunQ movement
	// as soon as it builds up); keeping it shallow means a quota change
	// (e.g. S dropping to zero) never strands thousands of already-
	// admitted calls.
	runQLimit int = 512
	// pollBatch bounds calls pulled per tick across all source regions.
	pollBatch int = 4096
	// bufferCap bounds each FuncBuffer; full buffers stop polling that
	// function so deferred calls wait durably in the DurableQ rather
	// than in scheduler memory.
	bufferCap int = 2048
	// dispatchBatch bounds dispatches per tick.
	dispatchBatch int = 4096
	// shardsPerPoll is how many shards are sampled per source region per
	// tick.
	shardsPerPoll int = 4
	// LeaseRenewInterval is how often the scheduler renews the DurableQ
	// leases of calls it still holds (buffered, queued or running), so
	// only a crashed scheduler's calls are redelivered. A lease timeout
	// no longer than it expires leases of calls still running.
	LeaseRenewInterval time.Duration = 4 * time.Minute
	// shedInterval is the sliding observation window of queue-delay
	// shedding: delay must stay above target this long before shedding
	// starts (hysteresis against transient spikes).
	shedInterval time.Duration = 30 * time.Second
)

// shedTarget is the queue-delay target per criticality. Low-criticality,
// time-shiftable work tolerates the least sitting in an overloaded
// buffer; high-criticality work is never shed but its target still gates
// the shed-state bookkeeping.
var shedTarget = [...]time.Duration{
	function.CritLow:    2 * time.Minute,
	function.CritNormal: 5 * time.Minute,
	function.CritHigh:   15 * time.Minute,
}

// DefaultParams suit the simulation scale.
func DefaultParams() Params {
	return Params{PollInterval: time.Second}
}

// shedState is the per-function CoDel bookkeeping: when the function's
// head-of-buffer queue delay first crossed its criticality target, and
// whether the function is currently in a shedding spell.
type shedState struct {
	above      bool
	firstAbove sim.Time
	shedding   bool
}

// Scheduler is one stateless scheduler replica. The paper runs many per
// region, coordinating only through DurableQ leases; the platform's
// SchedulersPerRegion instantiates any number, and crash/failover tests
// exercise the statelessness claim.
type Scheduler struct {
	engine *sim.Engine
	src    *rng.Source
	region cluster.RegionID
	params Params
	// runQCap is runQLimit; a test lowers it to keep calls in their
	// buffers.
	runQCap int

	shards [][]*durableq.Shard // global view, indexed by region
	lb     *workerlb.LB
	cen    *ratelimit.Central
	cong   *congestion.Manager
	check  *isolation.Checker
	matrix *config.Cache

	buffers map[string]*FuncBuffer // admit's and pollFilter's lookup by name
	byName  []*FuncBuffer          // every buffer, in name order: no walk sees Go map order
	runQ    []*function.Call       // dense: every entry is scheduled and not yet dispatched
	// holder is this process's lessee identity; a crash replaces it.
	holder *durableq.Holder

	// pol drives the per-tick pipeline; polSrc is the policy's RNG,
	// split lazily from src on first Rand() call so the push policy
	// (which never draws) leaves the scheduler's stream untouched.
	// oppGate defers opportunistic polling while a policy holds it set.
	pol     policy.Policy
	polSrc  *rng.Source
	oppGate bool

	// Hot-path scratch, reused every tick so the poll/schedule/dispatch
	// loop does not allocate in steady state.
	completeFn  worker.DoneFunc // prebuilt s.complete
	placeFn     placeFunc       // prebuilt s.placeLB
	filterFn    func(*function.Call) bool
	filterScale float64 // cached per poll for filterFn
	filterCrit  function.Criticality
	pollScratch []*function.Call
	candScratch []*FuncBuffer

	// running holds the flight of every call dispatched to a worker, so a
	// detected worker death evacuates exactly its leases; free pools the
	// flights.
	running map[uint64]*flight
	free    []*flight

	// ShedEnabled turns on queue-delay shedding (shedSweep); SweepExpired
	// dead-letters RunQ calls past their deadline at dispatch time instead
	// of letting doomed work occupy workers. The platform sets both from
	// config.Resilience.
	ShedEnabled  bool
	SweepExpired bool

	// Hedged dispatch (HedgeBudget stays nil unless NewHedged got one): a
	// dedicated hedgeSrc keeps hedge worker picks off the scheduler's draws.
	hedgeSrc *rng.Source
	// HedgeBudget is the region's shared hedge token bucket (one per
	// region, shared by its replicas; see NewHedged), nil when off.
	HedgeBudget *HedgeBudget

	// draining marks a regional drain in progress: ticks no-op (no new
	// work is pulled or dispatched) while completion callbacks keep
	// running, so in-flight executions finish and ack normally.
	draining bool

	// down marks the window between Crash and Restart: the replica's
	// process is gone, so ticks, lease renewal and completion callbacks
	// all no-op until the restart delay elapses.
	down bool

	// AllowPull, when set, gates polling (the region circuit breaker);
	// while it reports false the scheduler evacuates held work instead of
	// pulling more.
	AllowPull func() bool
	// Reachable, when set, reports whether a source region's DurableQs
	// are reachable from this scheduler (network partitions); nil means
	// everything is reachable.
	Reachable func(cluster.RegionID) bool

	// OnExecuted, when set, is invoked for every successfully completed
	// call (platform-level series aggregation).
	OnExecuted func(*function.Call)

	// Obs, when set, hears scheduling decisions and the dispatch/complete
	// transitions behind the ledger's lease-exclusivity check.
	Obs *lifecycle.Spine

	// Metrics.
	Polled           stats.Counter
	Dispatched       stats.Counter
	QuotaThrottled   stats.Counter
	CongestionDenied stats.Counter
	IsolationDenied  stats.Counter
	Acked            stats.Counter
	Nacked           stats.Counter
	Evacuated        stats.Counter
	Crashes          stats.Counter
	CrossRegionPulls stats.Counter
	SLOMisses        stats.Counter
	// ShedCalls counts calls dead-lettered by queue-delay shedding;
	// ExpiredSwept counts expired calls terminated at dispatch time.
	ShedCalls    stats.Counter
	ExpiredSwept stats.Counter
	// Hedging: Hedged counts speculative copies dispatched, HedgeWins
	// those that finished before their primary, HedgeCancelled copies
	// cancelled because the primary won (or its worker was evacuated),
	// HedgeDenied hedges skipped for lack of budget tokens.
	Hedged         stats.Counter
	HedgeWins      stats.Counter
	HedgeCancelled stats.Counter
	HedgeDenied    stats.Counter
	// Released counts calls handed back gracefully during a regional
	// drain (distinct from Evacuated: no failure, no retry backoff).
	Released         stats.Counter
	SchedulingDelay  *stats.Histogram // start-time→dispatch seconds, reserved calls
	OpportunistDelay *stats.Histogram // start-time→dispatch seconds, opportunistic
}

// New returns a running scheduler for region without hedged dispatch.
// shards is the global view, indexed by region and then by index within
// the region: a shard's ID is its position in shards, which is how a
// held call's lease stamp (Call.Lessor) finds the shard it settles with.
// store supplies the GTC traffic matrix; pass the same instance the
// conductor publishes to.
func New(engine *sim.Engine, src *rng.Source, region cluster.RegionID, params Params,
	shards [][]*durableq.Shard, lb *workerlb.LB, cen *ratelimit.Central,
	cong *congestion.Manager, store *config.Store) *Scheduler {
	return NewHedged(engine, src, region, params, shards, lb, cen, cong, store, nil)
}

// NewHedged is New with hedged dispatch on when budget, the region's
// shared hedge token bucket, is non-nil.
func NewHedged(engine *sim.Engine, src *rng.Source, region cluster.RegionID, params Params,
	shards [][]*durableq.Shard, lb *workerlb.LB, cen *ratelimit.Central,
	cong *congestion.Manager, store *config.Store, budget *HedgeBudget) *Scheduler {

	s := &Scheduler{
		engine:           engine,
		src:              src,
		region:           region,
		params:           params,
		runQCap:          runQLimit,
		shards:           shards,
		lb:               lb,
		cen:              cen,
		cong:             cong,
		check:            &isolation.Checker{},
		matrix:           config.NewCache(store, gtc.MatrixKey),
		buffers:          make(map[string]*FuncBuffer),
		holder:           durableq.NewHolder(engine),
		running:          make(map[uint64]*flight),
		SchedulingDelay:  stats.NewHistogram(),
		OpportunistDelay: stats.NewHistogram(),
	}
	// Bind the per-call callbacks once; dispatching a closure per call or
	// per poll was a top allocation site in the platform profile.
	s.completeFn = s.complete
	s.placeFn = s.placeLB
	s.filterFn = s.pollFilter
	if budget != nil {
		// Split the hedge stream eagerly so runs with hedging on are
		// deterministic; with it off, no split happens and the
		// scheduler's draw sequence is byte-identical to before.
		s.HedgeBudget = budget
		s.hedgeSrc = src.Split()
	}
	s.pol = s.newPolicy()
	s.pol.Attach(s)
	lb.OnWorkerDown(s.onWorkerDown)
	engine.Every(params.PollInterval, s.tick)
	// The holder's round renews every lease this process still holds. A
	// crashed process's new holder holds none until it polls again.
	engine.Every(LeaseRenewInterval, func() { s.holder.Renew() })
	return s
}

// onWorkerDown reacts to a heartbeat-detected worker death: every call
// this scheduler still has in flight on that worker is NACKed so its
// DurableQ lease is released for redelivery elsewhere. Loud failures
// (connection drops) already completed with ErrWorkerFailed and left
// running; this path covers silent deaths, where only detection ever
// learns the calls are gone. Calls are evacuated in ID order.
func (s *Scheduler) onWorkerDown(w *worker.Worker) {
	var ids []uint64
	for id, f := range s.running {
		if f.w == w {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		f := s.running[id]
		c := f.call
		if f.armed {
			s.disarm(f)
		}
		s.untrack(f)
		s.cong.OnComplete(c.Spec)
		s.evacuateCall(c)
	}
}

// flight is one call dispatched to a worker: the worker whose execution
// settles it and, under hedged dispatch, the call's hedge. armed marks a
// hedge-delay timer pending or a speculative copy (clone, on hw) running;
// primaryFailed marks a primary failure swallowed because the copy was
// still running (the copy became the retry). Flights are pooled; fire,
// the timer callback, is built the first time a flight arms a hedge.
type flight struct {
	call          *function.Call
	w             *worker.Worker
	armed         bool
	clone         *function.Call
	hw            *worker.Worker
	primaryFailed bool
	primaryErr    error
	timer         sim.Timer
	fire          func()
}

// track starts c's flight on w.
func (s *Scheduler) track(c *function.Call, w *worker.Worker) *flight {
	var f *flight
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		f = &flight{}
	}
	f.call, f.w = c, w
	s.running[c.ID] = f
	return f
}

// untrack ends f's flight and returns it to the pool.
func (s *Scheduler) untrack(f *flight) {
	delete(s.running, f.call.ID)
	*f = flight{fire: f.fire}
	s.free = append(s.free, f)
}

// Crash models a scheduler process failure: every in-memory structure —
// FuncBuffers, RunQ, in-flight tracking — is destroyed. The
// DurableQ leases those calls held are orphaned (the process comes back
// as a new holder, so nobody renews them) and expire after LeaseTimeout,
// redelivering the calls to surviving replicas: the statelessness claim
// under test. Concurrency slots held for RunQ and in-flight calls are
// returned to the shared congestion manager (its view of a dead replica
// times out). Executions already on workers keep running; their
// completion callbacks find no flight and are ignored, exactly like a
// callback to a dead process.
func (s *Scheduler) Crash() {
	s.Crashes.Inc()
	s.down = true
	for _, c := range s.runQ {
		s.cong.OnComplete(c.Spec)
	}
	for _, f := range s.running {
		s.cong.OnComplete(f.call.Spec)
	}
	s.runQ = s.runQ[:0]
	s.buffers = make(map[string]*FuncBuffer)
	s.byName = nil
	s.holder.Release()
	s.holder = durableq.NewHolder(s.engine)
	// Armed hedge timers die with the process: fireHedge ignores a flight
	// that is no longer running, and dropping the pool keeps such a
	// flight from ever running again.
	s.running = make(map[uint64]*flight)
	s.free = nil
	// Policy state (forecasters, per-tick counters) lives in process memory
	// too, as did the buffers' shedding spells and hedge-delay estimators:
	// the policy is rebuilt from configuration, hedging warms up afresh.
	s.oppGate = false
	s.pol = s.newPolicy()
	s.pol.Attach(s)
	s.Obs.Control("scheduler.crash", fmt.Sprintf("r%d", s.region))
}

// Restart brings a crashed replica back after delay (process start plus
// state warm-up). The scheduler is stateless: it resumes by polling the
// DurableQs, so recovery time is the restart delay plus however long
// redelivery of its orphaned leases takes.
func (s *Scheduler) Restart(delay time.Duration) {
	s.engine.Schedule(delay, func() {
		s.down = false
		s.Obs.Control("scheduler.restart", fmt.Sprintf("r%d", s.region))
	})
}

// IsDown reports whether the replica is crashed and not yet restarted.
func (s *Scheduler) IsDown() bool { return s.down }

// Buffered returns the number of calls across all FuncBuffers.
func (s *Scheduler) Buffered() int {
	n := 0
	for _, b := range s.byName {
		n += b.Len()
	}
	return n
}

// RunQLen returns the current RunQ depth.
func (s *Scheduler) RunQLen() int { return len(s.runQ) }

func (s *Scheduler) tick() {
	if s.down || s.draining {
		return
	}
	if s.AllowPull != nil && !s.AllowPull() {
		// Region circuit breaker open: hand held work back to the
		// DurableQs so other regions execute it, and stop pulling until
		// the breaker closes.
		s.evacuate()
		return
	}
	if s.lb.DetectedHealthy() == 0 {
		// Total detected worker outage (heartbeat view, never
		// Worker.Failed directly): evacuate and stop pulling until
		// detection sees workers return.
		s.evacuate()
		return
	}
	s.pol.Tick()
}

// newPolicy builds the replica's policy instance from Params (factory
// override first, then by name; the empty name is push).
func (s *Scheduler) newPolicy() policy.Policy {
	if s.params.PolicyFactory != nil {
		return s.params.PolicyFactory()
	}
	return policy.New(s.params.Policy)
}

// The policy.Host surface. The Default* stages are the pre-policy tick
// body verbatim; the finer-grained levers below them exist for the
// competitor policies and are never invoked by push, so the default
// remains byte-identical.
var _ policy.Host = (*Scheduler)(nil)

// Rand implements policy.Host: the policy RNG, split from the
// scheduler's source on first use. Push never calls it, so the
// scheduler's draw sequence is unchanged under the default policy.
func (s *Scheduler) Rand() *rng.Source {
	if s.polSrc == nil {
		s.polSrc = s.src.Split()
	}
	return s.polSrc
}

// DefaultPoll implements policy.Host.
func (s *Scheduler) DefaultPoll() { s.poll(pollBatch) }

// PollScaled implements policy.Host: poll with the budget scaled by
// mult (pre-push ahead of a forecast spike).
func (s *Scheduler) PollScaled(mult float64) {
	budget := int(float64(pollBatch)*mult + 0.5)
	budget = max(budget, 1)
	s.poll(budget)
}

// DefaultShedSweep implements policy.Host.
func (s *Scheduler) DefaultShedSweep() {
	if s.ShedEnabled {
		s.shedSweep()
	}
}

// DefaultSchedule implements policy.Host.
func (s *Scheduler) DefaultSchedule() { s.schedule() }

// DefaultDispatch implements policy.Host.
func (s *Scheduler) DefaultDispatch() { s.drainRunQ(s.placeFn) }

// GroupPool implements policy.Host.
func (s *Scheduler) GroupPool(spec *function.Spec) []*worker.Worker {
	return s.lb.GroupPool(spec)
}

// WorkerUsable implements policy.Host.
func (s *Scheduler) WorkerUsable(w *worker.Worker) bool {
	return s.lb.Usable(w)
}

// GateOpportunistic implements policy.Host.
func (s *Scheduler) GateOpportunistic(gate bool) { s.oppGate = gate }

// PrewarmFunctions implements policy.Host.
func (s *Scheduler) PrewarmFunctions(fns []string) {
	for _, w := range s.lb.Workers() {
		if !w.Failed() {
			w.Runtime.Prewarm(fns)
		}
	}
}

// PoolUtilization implements policy.Host.
func (s *Scheduler) PoolUtilization() float64 { return s.lb.MeanUtilization() }

// shedSweep is the CoDel-style overload valve, run every tick between
// polling and scheduling (deliberately not inside schedule(): RunQ flow
// control skips scheduling exactly when workers are behind, which is
// when shedding matters most). Per backlogged function it compares the
// head-of-buffer queue delay against the function's criticality target;
// delay above target for a full shedInterval starts a shedding spell
// that dead-letters sheddable calls (opportunistic quota, below high
// criticality — the paper's time-shifted work) until the head's delay
// drops back under target or the buffer empties.
func (s *Scheduler) shedSweep() {
	now := s.engine.Now()
	for _, b := range s.byName {
		name := b.spec.Name
		st := &b.shed
		if b.Len() == 0 {
			if st.above || st.shedding {
				if st.shedding {
					s.Obs.Control("shed.stop", fmt.Sprintf("r%d %s drained", s.region, name))
				}
				*st = shedState{}
			}
			continue
		}
		spec := b.Spec()
		target := shedTarget[spec.Criticality]
		// Delay-tolerant work (the paper's time-shifted pipelines) is
		// deferred by the utilization controller and may legitimately sit
		// queued for hours before polling; scale its target with the
		// deadline so deferral is not mistaken for overload.
		if d := spec.Deadline / 4; d > target {
			target = d
		}
		delay := now - b.Peek().QueuedAt
		if delay <= target {
			if st.above || st.shedding {
				if st.shedding {
					s.Obs.Control("shed.stop", fmt.Sprintf("r%d %s delay=%s", s.region, name, delay))
				}
				*st = shedState{}
			}
			continue
		}
		if !st.above {
			st.above = true
			st.firstAbove = now
		}
		if !st.shedding && now-st.firstAbove < shedInterval {
			continue // hysteresis: a transient spike must outlast the window
		}
		if !st.shedding {
			st.shedding = true
			s.Obs.Control("shed.start", fmt.Sprintf("r%d %s delay=%s target=%s",
				s.region, name, delay, target))
		}
		if spec.Quota != function.QuotaOpportunistic || spec.Criticality >= function.CritHigh {
			continue // never shed reserved or high-criticality work
		}
		for b.Len() > 0 && now-b.Peek().QueuedAt > target {
			c := b.Pop()
			s.lessor(c).Terminate(c.ID, durableq.ReasonShed)
			s.ShedCalls.Inc()
		}
	}
}

// evacuate NACKs every held call (RunQ and FuncBuffers) for redelivery
// elsewhere.
func (s *Scheduler) evacuate() { s.unhold(s.evacuateCall) }

// evacuateCall NACKs one call this scheduler gives up.
func (s *Scheduler) evacuateCall(c *function.Call) {
	s.Obs.Emit(c, trace.KindEvacuated, 0)
	s.nack(c)
	s.Evacuated.Inc()
}

// unhold passes every held call to step: the RunQ first, each entry
// releasing its concurrency slot, then the FuncBuffers in name order.
// Each step may draw on the owning shard's RNG and arm its timers, so
// iterating the buffer map directly would leak Go map order into the
// simulation.
func (s *Scheduler) unhold(step func(*function.Call)) {
	for _, c := range s.runQ {
		s.cong.OnComplete(c.Spec)
		step(c)
	}
	s.runQ = s.runQ[:0]
	for _, b := range s.byName {
		for b.Len() > 0 {
			step(b.Pop())
		}
	}
}

// matrixRow returns this region's row of the traffic matrix (nil = local
// only).
func (s *Scheduler) matrixRow() []float64 {
	v, ok := s.matrix.Get()
	if !ok {
		return nil
	}
	m, ok := v.(gtc.Matrix)
	if !ok || int(s.region) >= len(m) {
		return nil
	}
	return m[s.region]
}

// pollFilter is the DurableQ admission predicate, bound once at
// construction. filterScale and filterCrit are cached by poll() each
// tick so the predicate itself captures no per-tick state.
func (s *Scheduler) pollFilter(c *function.Call) bool {
	if c.Spec.Quota == function.QuotaOpportunistic && (s.filterScale <= 0.01 || s.oppGate) {
		return false // deferred: wait durably in the queue
	}
	if c.Spec.Criticality < s.filterCrit {
		// Degradation policy: during a severe capacity loss,
		// low-criticality work waits durably so remaining capacity
		// serves critical traffic first.
		return false
	}
	// Buffer at most ~a minute of dispatchable work per function so
	// quota-throttled calls wait in the DurableQ (not in scheduler
	// memory past their lease).
	cap := bufferCap
	if limit := s.cen.RPSLimit(c.Spec); limit >= 0 {
		cap = min(cap, int(limit*60)+16)
	}
	if b, ok := s.buffers[c.Spec.Name]; ok && b.Len() >= cap {
		return false
	}
	return true
}

// pullFrom polls up to max calls from a sample of the region's shards.
func (s *Scheduler) pullFrom(region int, max int) {
	if max <= 0 || len(s.shards[region]) == 0 {
		return
	}
	perShard := max/shardsPerPoll + 1
	for i := 0; i < shardsPerPoll && max > 0; i++ {
		shard := s.shards[region][s.src.Intn(len(s.shards[region]))]
		n := min(perShard, max)
		calls := shard.PollAs(s.holder, s.pollScratch[:0], n, s.filterFn)
		for _, c := range calls {
			s.admit(c)
		}
		s.pollScratch = calls[:0]
		max -= len(calls)
		if region != int(s.region) {
			s.CrossRegionPulls.Add(float64(len(calls)))
		}
	}
}

// poll pulls ready calls from DurableQs into FuncBuffers, splitting the
// poll budget across source regions per the traffic matrix.
func (s *Scheduler) poll(budget int) {
	if s.RunQLen() >= s.runQCap {
		return // flow control: workers are behind
	}
	row := s.matrixRow()
	s.filterScale = s.cen.Scale()
	s.filterCrit = s.cen.MinCriticality()
	if row == nil {
		s.pullFrom(int(s.region), budget)
		return
	}
	// Drop unreachable source regions (partitions) and renormalize so
	// their share of the poll budget goes to reachable ones instead of
	// evaporating.
	reach := func(j int) bool {
		return s.Reachable == nil || s.Reachable(cluster.RegionID(j))
	}
	total := 0.0
	for j, frac := range row {
		if frac > 0 && reach(j) {
			total += frac
		}
	}
	if total <= 0 {
		s.pullFrom(int(s.region), budget)
		return
	}
	for j, frac := range row {
		if frac <= 0 || !reach(j) {
			continue
		}
		s.pullFrom(j, int(float64(budget)*frac/total+0.5))
	}
}

func (s *Scheduler) admit(c *function.Call) {
	s.Polled.Inc()
	if s.running[c.ID] != nil {
		// A lease redelivered while this replica still executes the call
		// (a journaled shard's crash replay): the running execution
		// settles the new lease.
		return
	}
	b, ok := s.buffers[c.Spec.Name]
	if !ok {
		b = NewFuncBuffer(c.Spec)
		s.buffers[c.Spec.Name] = b
		i, _ := slices.BinarySearchFunc(s.byName, c.Spec.Name, func(b *FuncBuffer, name string) int {
			return strings.Compare(b.spec.Name, name)
		})
		s.byName = slices.Insert(s.byName, i, b)
	}
	b.Push(c)
	s.pol.OnAdmit(c)
}

// schedule moves the most suitable calls from FuncBuffers to the RunQ,
// gated by quota, congestion control and isolation.
func (s *Scheduler) schedule() {
	space := s.runQCap - s.RunQLen()
	if space <= 0 {
		return
	}
	// Candidate tops, best (criticality, deadline) first. The per-buffer
	// fairness cap applies within a criticality level only: higher
	// criticality levels drain the full remaining budget first, so
	// important calls win during a capacity crunch (§4.4), while peers at
	// the same level cannot starve each other.
	cands := s.candScratch[:0]
	for _, b := range s.byName {
		if b.Len() > 0 {
			cands = append(cands, b)
		}
	}
	s.candScratch = cands
	if len(cands) == 0 {
		return
	}
	// Stable insertion sort by head slot (Less on the heads): produces the
	// identical order to sort.SliceStable for the same comparator without
	// its reflection allocations; the candidate list is one entry per
	// backlogged function, small by construction.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].h[0].before(cands[j-1].h[0]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for start := 0; start < len(cands) && space > 0; {
		crit := cands[start].Spec().Criticality
		end := start
		for end < len(cands) && cands[end].Spec().Criticality == crit {
			end++
		}
		space = s.scheduleLevel(cands[start:end], space)
		start = end
	}
}

// scheduleLevel admits calls from same-criticality buffers into the RunQ,
// splitting the budget fairly among them; it returns the unused budget.
func (s *Scheduler) scheduleLevel(cands []*FuncBuffer, space int) int {
	perBuf := space/len(cands) + 1
	for _, b := range cands {
		if space <= 0 {
			return 0
		}
		// The gates follow the function's current definition, which a
		// re-registration may have replaced since the buffer was made.
		spec := b.Spec().Current()
		taken := 0
		for b.Len() > 0 && space > 0 && taken < perBuf {
			c := b.Peek()
			if err := s.check.CheckArgFlow(c.ArgZone, spec.Zone); err != nil {
				// Illegal flow: reject permanently (NACK until DLQ).
				b.Pop()
				s.IsolationDenied.Inc()
				s.Obs.Emit(c, trace.KindIsolationDenied, 0)
				s.nack(c)
				continue
			}
			if !s.cen.Allow(spec) {
				s.QuotaThrottled.Inc()
				s.Obs.Emit(c, trace.KindQuotaDenied, 0)
				break // over global quota: the whole function waits
			}
			// Note: quota was already accounted; a congestion deny here
			// leaves a small overcount, which is conservative.
			if !s.cong.AllowDispatch(spec) {
				s.CongestionDenied.Inc()
				s.Obs.Emit(c, trace.KindCongestionDenied, 0)
				break
			}
			b.Pop()
			s.runQ = append(s.runQ, c)
			s.Obs.Emit(c, trace.KindScheduled, 0)
			s.pol.OnScheduled(c)
			space--
			taken++
		}
	}
	return space
}

// placeFunc is drainRunQ's placement step.
type placeFunc func(*function.Call) (w *worker.Worker, stop bool)

// drainRunQ dispatches the RunQ in order, asking place to start each call
// on a worker. A rejected call (nil worker, stop=false) stays in place —
// it keeps its concurrency slot, it is still scheduled — while later
// calls are still attempted, so one memory- or CPU-hungry call cannot
// head-of-line-block lighter work; after a burst of consecutive
// rejections the workers are considered saturated and the drain pauses
// until the next tick. stop=true ends the drain at once: no worker
// anywhere can take more work this tick. The pass compacts as it goes:
// survivors slide down over the dispatched and swept entries in their
// original order, so the RunQ never holds more than its live calls.
func (s *Scheduler) drainRunQ(place placeFunc) {
	const maxConsecutiveRejects = 16
	rejects, dispatched := 0, 0
	now := s.engine.Now()
	sweep := s.SweepExpired
	q := s.runQ
	i, kept := 0, 0
	for i < len(q) && dispatched < dispatchBatch {
		c := q[i]
		i++
		if sweep && c.Expired(now) {
			// The deadline passed while the call waited in the RunQ; it
			// must never reach a worker. Release its concurrency slot and
			// settle it to dead-letter at its owning shard.
			s.cong.OnComplete(c.Spec)
			s.lessor(c).Terminate(c.ID, durableq.ReasonExpired)
			s.ExpiredSwept.Inc()
			continue
		}
		c.DispatchAt = now
		w, stop := place(c)
		if w == nil {
			q[kept] = c
			kept++
			if stop {
				break
			}
			rejects++
			if rejects >= maxConsecutiveRejects {
				break
			}
			continue
		}
		f := s.track(c, w)
		rejects = 0
		dispatched++
		s.recordDispatchDelay(c)
		s.Dispatched.Inc()
		s.Obs.Emit(c, trace.KindDispatch, trace.Ref(w.ID.Region, w.ID.Index))
		s.armHedge(f)
	}
	kept += copy(q[kept:], q[i:])
	clear(q[kept:])
	s.runQ = q[:kept]
}

// placeLB is the default placement step: the WorkerLB's power-of-two
// choice, whose draw sequence is a byte-identity contract.
func (s *Scheduler) placeLB(c *function.Call) (*worker.Worker, bool) {
	w, _ := s.lb.DispatchTo(c, s.completeFn)
	return w, false
}

// DispatchWith implements policy.Host: the default drain with pick
// choosing each call's destination worker instead of the WorkerLB.
func (s *Scheduler) DispatchWith(pick func(*function.Call) (*worker.Worker, bool)) {
	s.drainRunQ(func(c *function.Call) (*worker.Worker, bool) {
		w, ok := pick(c)
		if !ok {
			return nil, true
		}
		if !w.TryExecute(c, s.completeFn) {
			return nil, false
		}
		return w, false
	})
}

func (s *Scheduler) recordDispatchDelay(c *function.Call) {
	delay := (c.DispatchAt - c.StartAfter).Seconds()
	if delay < 0 {
		delay = 0
	}
	if c.Spec.Quota == function.QuotaOpportunistic {
		s.OpportunistDelay.Observe(delay)
	} else {
		s.SchedulingDelay.Observe(delay)
	}
}

// complete is the worker completion callback. A call with an armed hedge
// resolves the race first (first completion wins, the loser is
// cancelled); everything else settles directly.
func (s *Scheduler) complete(c *function.Call, err error) {
	f := s.running[c.ID]
	if f == nil {
		// Failure detection already evacuated this call (the lease was
		// NACKed and the concurrency slot released); a late completion
		// callback must not double-complete it.
		return
	}
	if f.armed && s.completeHedged(f, c, err) {
		return
	}
	s.settle(f, c, err)
}

// settle ends f's flight once its winning execution c is known: release
// the concurrency slot, ACK or NACK the owning DurableQ, and feed the
// completion-driven health and hedge-delay estimators.
func (s *Scheduler) settle(f *flight, c *function.Call, err error) {
	w := f.w
	s.untrack(f)
	now := s.engine.Now()
	s.cong.OnComplete(c.Spec)
	s.Obs.Emit(c, trace.KindComplete, trace.Ref(w.ID.Region, w.ID.Index))
	if errors.Is(err, downstream.ErrBackpressure) {
		s.cong.OnBackpressure(c.Spec)
		s.Obs.Emit(c, trace.KindBackpressure, 0)
	}
	if err != nil {
		s.nack(c)
		return
	}
	// Real completion signals feed detection v2 (per-worker exec-time
	// inflation vs the function's fleet baseline) and the per-function
	// hedge-delay quantile estimator.
	execSecs := (c.ExecEndAt - c.ExecStartAt).Seconds()
	s.lb.ObserveExec(w, c.Spec.Name, execSecs)
	if s.HedgeBudget != nil {
		s.hedgeObserve(c.Spec.Name, execSecs)
	}
	s.cen.RecordCost(c.Spec, c.CPUWorkM)
	if c.Expired(now) {
		s.SLOMisses.Inc()
		s.Obs.Emit(c, trace.KindSLOMiss, 0)
	}
	if s.OnExecuted != nil {
		s.OnExecuted(c)
	}
	if s.lessor(c).Ack(c.ID) {
		s.Acked.Inc()
	}
}

// SetDraining starts or ends this replica's part of a regional drain.
// Entering a drain stops the tick pipeline (no polling, scheduling or
// dispatching) and gracefully hands every held-but-not-yet-executing
// call back to its DurableQ via Release — no failure, no retry backoff,
// no redelivery accounting — so the drain controller can migrate the
// critical ones to peer regions. Executions already on workers run to
// completion and ack normally (zero acked-call loss is the drill's
// acceptance bar). Leaving a drain simply resumes ticking.
func (s *Scheduler) SetDraining(drain bool) {
	if s.draining == drain {
		return
	}
	s.draining = drain
	if drain && !s.down {
		s.releaseHeld()
	}
}

// InFlight returns the number of calls currently executing on workers
// under this replica (the drain controller's quiesce gate).
func (s *Scheduler) InFlight() int { return len(s.running) }

// releaseHeld is evacuate()'s graceful twin: RunQ and buffered calls go
// back to their owning shards as queued work (Release), keeping their
// attempt accounting out of the failure/retry machinery.
func (s *Scheduler) releaseHeld() { s.unhold(s.release) }

// release hands one held call back to its owning shard as plain queued
// work.
func (s *Scheduler) release(c *function.Call) {
	s.Obs.Emit(c, trace.KindEvacuated, 0)
	if s.lessor(c).Release(c.ID) {
		s.Released.Inc()
	}
}

// lessor returns the shard that granted c's lease, named by the stamp
// the lease put on c, for the caller to settle c with.
func (s *Scheduler) lessor(c *function.Call) *durableq.Shard {
	shard := s.shards[c.Lessor.Region][c.Lessor.Index]
	if shard.IsDown() {
		// The settle the caller makes is refused, and this process lets
		// the lease go all the same: it runs out unrenewed.
		s.holder.Forget(shard, c.ID)
	}
	return shard
}

func (s *Scheduler) nack(c *function.Call) {
	shard := s.lessor(c)
	// Retry-placement hook: the policy may override the backoff base of
	// the redelivery. Push always declines, keeping the spec default.
	if base, ok := s.pol.RetryBase(c); ok {
		if shard.NackBase(c.ID, base) {
			s.Nacked.Inc()
		}
		return
	}
	if shard.Nack(c.ID) {
		s.Nacked.Inc()
	}
}
