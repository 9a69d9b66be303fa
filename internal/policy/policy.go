// Package policy defines the pluggable scheduling-policy seam of the
// scheduler (ROADMAP open item: racing the paper's push/lease policy
// against competitors under one oracle harness). A Policy drives one
// scheduler replica's per-tick pipeline through the narrow Host surface;
// the scheduler owns all state (buffers, RunQ, leases, counters) and the
// policy owns only the decision logic, so every policy inherits the
// invariant hooks, trace records, and accounting of the shared machinery.
//
// Determinism contract: a policy may draw randomness only from Host.Rand
// (a lazily split child of the scheduler's source) and must never iterate
// a Go map where the order can reach an RNG draw, an event schedule, or
// any output — the same discipline the scheduler's evacuation sweep pins
// with a white-box draw-sequence test. The default push policy makes no
// Host.Rand draws and no extra state transitions at all, so its seeded
// output is byte-identical to the pre-policy scheduler.
package policy

import (
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/worker"
)

// Host is the scheduler surface a Policy drives. The Default* stages are
// the push pipeline extracted verbatim; competitor policies recombine
// them with the finer-grained levers below.
type Host interface {
	// Rand returns the policy's RNG stream, split lazily from the
	// scheduler's source on first use. The push policy never calls it,
	// keeping the scheduler's draw sequence untouched.
	Rand() *rng.Source

	// DefaultPoll pulls ready calls from the DurableQs into FuncBuffers
	// under the traffic-matrix budget split (the push policy's poll).
	DefaultPoll()
	// PollScaled is DefaultPoll with the poll budget scaled by mult —
	// the pre-push lever: a forecasted spike primes buffers early.
	PollScaled(mult float64)
	// DefaultShedSweep runs the CoDel queue-delay valve when shedding is
	// enabled (no-op otherwise).
	DefaultShedSweep()
	// DefaultSchedule admits calls FuncBuffers → RunQ, criticality-major
	// with per-level fairness, gated by quota, congestion and isolation.
	DefaultSchedule()
	// DefaultDispatch drains the RunQ through the WorkerLB's
	// power-of-two choice (the push policy's dispatch).
	DefaultDispatch()

	// DispatchWith drains the RunQ like DefaultDispatch but asks pick
	// for each call's destination worker: the worker-selection hook.
	// pick returns (nil, false) to stop the drain (no capacity); a
	// worker that then rejects the call counts toward the same
	// consecutive-reject pause as the default dispatcher.
	DispatchWith(pick func(*function.Call) (*worker.Worker, bool))
	// GroupPool returns the workers legally serving spec (the locality
	// group, or the full pool under the fallback), in stable pool order.
	GroupPool(spec *function.Spec) []*worker.Worker
	// WorkerUsable reports whether w is up and detected healthy.
	WorkerUsable(w *worker.Worker) bool

	// GateOpportunistic defers opportunistic-quota polling while set:
	// deferred calls wait durably in their DurableQ (the resource-saving
	// end of the SPES trade).
	GateOpportunistic(gate bool)
	// PrewarmFunctions marks the named functions' JIT state warm on
	// every worker in the scheduler's region.
	PrewarmFunctions(fns []string)
	// PoolUtilization returns the region worker pool's mean CPU
	// utilization in [0, 1].
	PoolUtilization() float64
}

// Policy is one scheduling policy instance, owned by a single scheduler
// replica (policies may carry per-replica state such as forecasters; a
// scheduler crash discards and rebuilds the instance, like any other
// in-memory state).
type Policy interface {
	// Attach binds the policy to its host; called once at scheduler
	// construction and again after a crash rebuild.
	Attach(h Host)
	// Tick runs one scheduling round.
	Tick()
	// OnAdmit observes every call admitted from a DurableQ poll into a
	// FuncBuffer (the arrival stream forecasters feed on).
	OnAdmit(c *function.Call)
	// OnScheduled observes every call admitted FuncBuffer → RunQ, in
	// admission order — the dispatch-decision sequence the deadline-
	// ordering property test asserts on.
	OnScheduled(c *function.Call)
	// RetryBase is the retry-placement hook: the backoff base for a
	// failed call's redelivery. ok false keeps the function spec's
	// default.
	RetryBase(c *function.Call) (base time.Duration, ok bool)
}

// New builds the named policy with its shipped knobs. The empty name is
// the push default, so zero-value scheduler Params keep the pre-policy
// behavior.
func New(name string) Policy {
	switch name {
	case "", config.PolicyPush:
		return &Push{}
	case config.PolicyPull:
		return &Pull{maxPerWorker: pullMaxPerWorker}
	case config.PolicyPrewarm:
		return &Prewarm{
			alpha: prewarmAlpha, beta: prewarmBeta, horizonTicks: prewarmHorizonTicks,
			maxBoost: prewarmMaxBoost, topK: prewarmTopK, intervalTicks: prewarmIntervalTicks,
		}
	case config.PolicySPES:
		return &SPES{perf: spesPerf, spareTarget: spesSpareTarget, topK: spesTopK, intervalTicks: spesIntervalTicks}
	default:
		panic("policy: unknown policy " + name + " (check it with config.CheckPolicy first)")
	}
}

// Base provides no-op hook defaults; concrete policies embed it and
// override what they need.
type Base struct{}

func (Base) OnAdmit(*function.Call)     {}
func (Base) OnScheduled(*function.Call) {}
func (Base) RetryBase(*function.Call) (time.Duration, bool) {
	return 0, false
}
