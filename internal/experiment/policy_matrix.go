package experiment

import (
	"sort"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/workload"
)

// The policy matrix is the differential policy lab's headline artifact:
// every shipped scheduling policy runs every adversarial overload
// scenario under identical seeds, and each cell reports the axes the
// policies actually trade against each other — utilization, tail
// latency, cold-start exposure, overload losses, and cross-function
// fairness. xfaas-sim -policy-matrix <file> writes it as JSON.

// PolicyMatrixSchema identifies the JSON document shape.
const PolicyMatrixSchema = "xfaas-policy-matrix/v1"

// PolicyCell is one (scenario, policy) measurement.
type PolicyCell struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// UtilizationMean is the fleet CPU utilization averaged over
	// once-per-simulated-minute samples.
	UtilizationMean float64 `json:"utilization_mean"`
	// P99E2ESeconds is the submit→done latency 99th percentile.
	P99E2ESeconds float64 `json:"p99_e2e_seconds"`
	// ColdStartExposure is the fraction of executions started under a
	// JIT speed factor above 1 (cold or still profiling).
	ColdStartExposure float64 `json:"cold_start_exposure"`
	// ShedCalls / ExpiredCalls are the overload-valve losses: queue-delay
	// sheds and deadline-expiry drops (swept + dead-lettered).
	ShedCalls    float64 `json:"shed_calls"`
	ExpiredCalls float64 `json:"expired_calls"`
	// JainFairness is Jain's index over per-function executed counts:
	// 1 when every function got equal service, 1/n when one took all.
	JainFairness float64 `json:"jain_fairness"`
	// Executed is the total completions, the denominator context for the
	// ratios above.
	Executed float64 `json:"executed"`
}

// PolicyMatrix is the full scenario × policy table. It contains no
// wall-clock fields: two runs with the same seed must be byte-identical,
// which is exactly how CI gates it.
type PolicyMatrix struct {
	Schema    string       `json:"schema"`
	Seed      uint64       `json:"seed"`
	Scenarios []string     `json:"scenarios"`
	Policies  []string     `json:"policies"`
	Cells     []PolicyCell `json:"cells"`
}

// matrixScenario is one column group of the matrix: the overload
// scenario's own rig (the one its chaos experiment runs, see
// resilience_exps.go) and the timeline the matrix drives it through.
type matrixScenario struct {
	name  string
	rig   func(Scale) rigConfig
	drive func(*matrixProbe, *rig)
}

// matrixProbe observes one matrix run: the platform plus the
// per-function completion counts and utilization samples the cell
// metrics derive from.
type matrixProbe struct {
	p       *core.Platform
	perFunc map[string]float64
	utils   []float64
}

func newMatrixProbe(p *core.Platform) *matrixProbe {
	mp := &matrixProbe{p: p, perFunc: map[string]float64{}}
	p.AddOnExecuted(func(c *function.Call) { mp.perFunc[c.Spec.Name]++ })
	return mp
}

// runSampled advances the simulation in one-minute steps, sampling mean
// fleet utilization after each.
func (mp *matrixProbe) runSampled(d time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += time.Minute {
		step := time.Minute
		if rem := d - elapsed; rem < step {
			step = rem
		}
		mp.p.Engine.RunFor(step)
		mp.utils = append(mp.utils, mp.p.MeanUtilization())
	}
}

// cell reduces the probe to the scenario×policy measurement.
func (mp *matrixProbe) cell(scenario, policy string) PolicyCell {
	c := PolicyCell{Scenario: scenario, Policy: policy}
	for _, u := range mp.utils {
		c.UtilizationMean += u
	}
	if len(mp.utils) > 0 {
		c.UtilizationMean /= float64(len(mp.utils))
	}
	c.P99E2ESeconds = mp.p.E2ELatency.Quantile(0.99)
	t := core.CountersOf(mp.p.Regions()...)
	if t.Executions > 0 {
		c.ColdStartExposure = t.ColdExecutions / t.Executions
	}
	c.ShedCalls = t.ShedCalls
	c.ExpiredCalls = t.ExpiredSwept + t.DeadExpired
	c.JainFairness = jainIndex(mp.perFunc)
	c.Executed = t.Executions
	return c
}

// jainIndex is Jain's fairness index (Σx)² / (n·Σx²) over the
// per-function completion counts, folding in sorted-name order so the
// float accumulation is deterministic.
func jainIndex(perFunc map[string]float64) float64 {
	if len(perFunc) == 0 {
		return 1
	}
	names := make([]string, 0, len(perFunc))
	for name := range perFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum, sumSq float64
	for _, name := range names {
		x := perFunc[name]
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(perFunc)) * sumSq)
}

func matrixScenarios() []matrixScenario {
	mix := workload.DefaultStormMix("backend")
	return []matrixScenario{
		{"retrystorm", func(s Scale) rigConfig { return stormRig(s, mix) }, func(mp *matrixProbe, rg *rig) {
			mp.runSampled(5 * time.Minute)
			restore := rg.Inj.Buggy("backend", 1.0)
			mp.runSampled(20 * time.Minute)
			restore()
			mp.runSampled(10 * time.Minute)
		}},
		{"midnightspike", midnightSpikeRig, func(mp *matrixProbe, _ *rig) {
			mp.runSampled(90 * time.Minute)
		}},
		{"zipfneighbor", neighbourRig, func(mp *matrixProbe, _ *rig) {
			mp.runSampled(workload.NoisyFloodStart + workload.NoisyFloodLen + 20*time.Minute)
		}},
		{"spikyclient", spikyClientRig, func(mp *matrixProbe, _ *rig) {
			mp.runSampled(2 * time.Hour)
		}},
	}
}

// RunPolicyMatrix runs every shipped policy through every adversarial
// overload scenario at the given seed and returns the table. On top of
// each scenario's quick-scale rig it sets the policy under test, the
// full resilience stack (so shed/expiry valves are live) and cold JIT
// starts (so cold-start exposure is a real axis — DefaultConfig pre-warms
// everything). Output is a pure function of the seed: no wall-clock
// reads, no map-order floats.
func RunPolicyMatrix(seed uint64) *PolicyMatrix {
	m := &PolicyMatrix{Schema: PolicyMatrixSchema, Seed: seed, Policies: config.PolicyNames()}
	scenarios := matrixScenarios()
	for _, sc := range scenarios {
		m.Scenarios = append(m.Scenarios, sc.name)
	}
	for _, sc := range scenarios {
		for _, name := range m.Policies {
			rc := sc.rig(Scale{Quick: true, Seed: seed, Policy: name})
			rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
			rc.Platform.PrewarmJIT = false
			rg := rc.build()
			mp := newMatrixProbe(rg.P)
			sc.drive(mp, rg)
			m.Cells = append(m.Cells, mp.cell(sc.name, name))
		}
	}
	return m
}
