package config

import "fmt"

// Shipped scheduling-policy names. The scheduler instantiates the policy
// by name; unknown names are a configuration error caught by Validate.
const (
	// PolicyPush is the paper's push/lease scheduler: poll → shed →
	// criticality-major admission → power-of-two push dispatch. It is the
	// default and its seeded output is byte-identical to the pre-policy
	// scheduler.
	PolicyPush = "push"
	// PolicyPull is Hiku-style pull scheduling: idle workers pull the
	// next admitted call from the per-criticality queues instead of the
	// WorkerLB pushing to two random choices.
	PolicyPull = "pull"
	// PolicyPrewarm is predictive pre-warm/pre-push: a Holt-Winters
	// forecaster over per-tick arrivals scales the poll budget ahead of
	// forecast spikes and pre-warms the hottest functions' JIT state.
	PolicyPrewarm = "prewarm"
	// PolicySPES is an SPES-style performance-vs-resource knob: one
	// parameter trades spare-capacity headroom and retry pacing against
	// cold-start exposure.
	PolicySPES = "spes"
)

// PolicyNames lists every shipped policy, in stable order.
func PolicyNames() []string {
	return []string{PolicyPush, PolicyPull, PolicyPrewarm, PolicySPES}
}

// PullKnobs configure the pull policy.
type PullKnobs struct {
	// MaxPerWorker bounds how many calls one worker may pull per
	// scheduling tick, so a single idle machine cannot drain the whole
	// RunQ before its load numbers catch up.
	MaxPerWorker int
}

// PrewarmKnobs configure the predictive pre-warm/pre-push policy.
type PrewarmKnobs struct {
	// Alpha is the Holt-Winters level smoothing factor in (0, 1].
	Alpha float64
	// Beta is the Holt-Winters trend smoothing factor in [0, 1].
	Beta float64
	// HorizonTicks is how many scheduling ticks ahead the arrival
	// forecast looks when scaling the poll budget.
	HorizonTicks int
	// MaxBoost caps the forecast-driven poll budget multiplier.
	MaxBoost float64
	// TopK is how many of the hottest functions are pre-warmed.
	TopK int
	// IntervalTicks is the pre-warm cadence in scheduling ticks.
	IntervalTicks int
}

// SPESKnobs configure the SPES-style trade-off policy.
type SPESKnobs struct {
	// Perf is the performance-vs-resource knob in [0, 1]: 0 conserves
	// resources (headroom reserved, opportunistic work deferred under
	// pressure, retries spread out, no pre-warming), 1 maximizes
	// performance (no reserved headroom, aggressive pre-warming, fastest
	// retry pacing).
	Perf float64
	// SpareTarget is the spare-capacity fraction reserved at Perf = 0;
	// the effective reservation is (1 - Perf) × SpareTarget.
	SpareTarget float64
	// TopK is the maximum pre-warm set size, reached at Perf = 1.
	TopK int
	// IntervalTicks is the pre-warm cadence in scheduling ticks.
	IntervalTicks int
}

// Policy selects a scheduling policy and its knobs. The zero value (empty
// name) means the default push policy.
type Policy struct {
	Name    string
	Pull    PullKnobs
	Prewarm PrewarmKnobs
	SPES    SPESKnobs
}

// DefaultPolicy returns the push policy with recommended knobs for every
// competitor, so switching Name alone yields a sensible configuration.
func DefaultPolicy() Policy {
	return Policy{
		Name: PolicyPush,
		Pull: PullKnobs{MaxPerWorker: 32},
		Prewarm: PrewarmKnobs{
			Alpha:         0.3,
			Beta:          0.1,
			HorizonTicks:  5,
			MaxBoost:      4,
			TopK:          16,
			IntervalTicks: 30,
		},
		SPES: SPESKnobs{
			Perf:          0.5,
			SpareTarget:   0.3,
			TopK:          16,
			IntervalTicks: 30,
		},
	}
}

// PolicyByName returns the default knobs with the given policy selected.
func PolicyByName(name string) (Policy, error) {
	p := DefaultPolicy()
	p.Name = name
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Validate checks the policy name and every knob bound. The empty name
// and all-zero knob blocks are legal (unset: push default with default
// knobs) so zero-value Params keep working.
func (p Policy) Validate() error {
	switch p.Name {
	case "", PolicyPush, PolicyPull, PolicyPrewarm, PolicySPES:
	default:
		return fmt.Errorf("policy: unknown policy %q", p.Name)
	}
	if p.Pull.MaxPerWorker < 0 {
		return fmt.Errorf("policy: pull.max_per_worker %d is negative", p.Pull.MaxPerWorker)
	}
	if p.Prewarm == (PrewarmKnobs{}) {
		return p.validateSPES()
	}
	pw := p.Prewarm
	if pw.Alpha < 0 || pw.Alpha > 1 {
		return fmt.Errorf("policy: prewarm.alpha %g outside [0,1]", pw.Alpha)
	}
	if pw.Beta < 0 || pw.Beta > 1 {
		return fmt.Errorf("policy: prewarm.beta %g outside [0,1]", pw.Beta)
	}
	if pw.HorizonTicks < 0 || pw.HorizonTicks > 1<<20 {
		return fmt.Errorf("policy: prewarm.horizon_ticks %d outside [0,2^20]", pw.HorizonTicks)
	}
	if pw.MaxBoost < 1 || pw.MaxBoost > 1e6 {
		return fmt.Errorf("policy: prewarm.max_boost %g outside [1,1e6]", pw.MaxBoost)
	}
	if pw.TopK < 0 || pw.TopK > 1<<20 {
		return fmt.Errorf("policy: prewarm.top_k %d outside [0,2^20]", pw.TopK)
	}
	if pw.IntervalTicks < 0 || pw.IntervalTicks > 1<<20 {
		return fmt.Errorf("policy: prewarm.interval_ticks %d outside [0,2^20]", pw.IntervalTicks)
	}
	return p.validateSPES()
}

func (p Policy) validateSPES() error {
	if p.SPES == (SPESKnobs{}) {
		return nil
	}
	sp := p.SPES
	if sp.Perf < 0 || sp.Perf > 1 {
		return fmt.Errorf("policy: spes.perf %g outside [0,1]", sp.Perf)
	}
	if sp.SpareTarget < 0 || sp.SpareTarget > 1 {
		return fmt.Errorf("policy: spes.spare_target %g outside [0,1]", sp.SpareTarget)
	}
	if sp.TopK < 0 || sp.TopK > 1<<20 {
		return fmt.Errorf("policy: spes.top_k %d outside [0,2^20]", sp.TopK)
	}
	if sp.IntervalTicks < 0 || sp.IntervalTicks > 1<<20 {
		return fmt.Errorf("policy: spes.interval_ticks %d outside [0,2^20]", sp.IntervalTicks)
	}
	return nil
}
