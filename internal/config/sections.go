package config

import "time"

// The platform's configuration sections: the on/off switches of each
// optional mechanism plus the few values some caller varies. Every other
// tunable is a typed constant in the package that applies it. All
// mechanisms ship disabled — the submit path stays allocation-free and
// seed-keyed outputs are unchanged — and the scenarios that need one turn
// it on.

// Resilience switches the overload defenses (paper §5.5's metastable-
// failure story: back-pressure, criticality ordering and TTLs bound the
// work a retry storm can amplify into). They are one switch because
// nothing runs them apart; component tests isolate each mechanism through
// the component's own field. The zero value is off. On, the platform
// arms:
//   - retry budgets: every DurableQ shard gets a per-function retry
//     token bucket; redeliveries spend a token, first-attempt successes
//     earn β, and an empty bucket dead-letters the call (`budget`), so
//     retry work is bounded at (1 + β) × first-attempt work (β and the
//     burst: durableq.Shard);
//   - shedding: the scheduler's CoDel-style queue-delay shedding of
//     opportunistic, below-high-criticality calls (window and
//     per-criticality targets: internal/scheduler);
//   - expiry sweeping: calls past their absolute deadline are
//     dead-lettered (`expired`) at poll, dispatch and redelivery time
//     instead of occupying workers, and workers skip downstream retries
//     that cannot finish before the deadline;
//   - hedged dispatch, the tail-at-scale defense: a CritHigh call running
//     past an online per-function quantile gets one speculative copy on a
//     different worker, first completion wins, and a per-region token
//     budget bounds the duplicate work (estimator and budget:
//     internal/scheduler).
type Resilience struct {
	Enabled bool
}

// EnableAll returns a copy with the defenses switched on — the
// adversarial scenarios' "defended" configuration.
func (r Resilience) EnableAll() Resilience {
	r.Enabled = true
	return r
}

// Observe switches the machinery that measures the paper's headline
// result, sustained ~66% daily-average CPU utilization (§1, Fig. 3):
// per-worker core-second meters (busy + idle == capacity × elapsed,
// exactly), windowed utilization timelines per region, per criticality
// and fleet-wide, per-tenant cost counters, and the per-criticality SLO
// engine with multi-window burn-rate alerting (CritHigh has a
// completion-latency objective, delay-tolerant classes goodput within
// deadline; dead-letters count against their class). Windows, budgets
// and thresholds: internal/slo.
type Observe struct {
	Enabled bool
}

// DefaultObserve returns observation switched off.
func DefaultObserve() Observe { return Observe{} }

// EnableAll returns a copy with accounting and the SLO engine switched on.
func (o Observe) EnableAll() Observe {
	o.Enabled = true
	return o
}

// Durability is the crash-recovery section. Replay pacing and the
// retry-backoff cap are defaults of durableq.Shard; the stateless tiers'
// rebuild delays are constants of internal/chaos.
type Durability struct {
	// JournalEnabled gives every DurableQ shard a write-ahead log so it
	// can crash, restart, and replay its state (at-least-once recovery).
	JournalEnabled bool
	// FlushLag is the journal sync-horizon lag: records newer than the
	// last flush are lost by a crash (the torn tail). 0 = synchronous
	// durability, no accepted call is ever lost.
	FlushLag time.Duration
}

// GrayDetection is detection v2 for gray (alive-but-slow) workers: the
// WorkerLB scores every worker from real dispatch completions and runs a
// probation → ejected → reinstated state machine with hysteresis
// (scoring thresholds: internal/workerlb).
type GrayDetection struct {
	// Enabled turns completion-driven outlier scoring on; off, the LB
	// keeps the probe-only view.
	Enabled bool
	// Probation is the hysteresis window: a routing flip (ejection or
	// reinstatement) requires the worker to have held its state this
	// long, so flapping at the threshold flips routing at most once per
	// window. The same window rate-limits the probe-driven Gray↔Healthy
	// transitions while detection v2 is on.
	Probation time.Duration
}
