package proptest

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"xfaas/internal/baseline"
	"xfaas/internal/chaos"
	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/policy"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/workload"
)

// ---------------------------------------------------------------------------
// Deadline-ordering property (the policy lab's core oracle): within a
// criticality class, no policy may ever schedule a later-deadline call
// ahead of an earlier-deadline call that was already admitted. The
// FuncBuffer heap itself is pinned by the scheduler package's tests;
// here every shipped policy is checked end to end through an
// order-recording probe.
// ---------------------------------------------------------------------------

// orderProbe wraps a real policy, recording per-replica admission and
// scheduling order through the policy hooks. It is itself a policy:
// installing it must not perturb the wrapped policy's behavior.
type orderProbe struct {
	inner      policy.Policy
	admitOf    map[uint64]int // call ID → latest admission sequence number
	admitCount int
	sched      []schedEntry
}

type schedEntry struct {
	c *function.Call
	// admitted is the admission sequence number in force for c when it
	// was scheduled, or -1 if c was never admitted to this replica.
	admitted int
	// watermark is the number of admissions this replica had seen when
	// the call was scheduled: any call admitted before it was already
	// available to schedule.
	watermark int
}

func (p *orderProbe) Attach(h policy.Host) { p.inner.Attach(h) }
func (p *orderProbe) Tick()                { p.inner.Tick() }
func (p *orderProbe) OnAdmit(c *function.Call) {
	if p.admitOf == nil {
		p.admitOf = map[uint64]int{}
	}
	p.admitOf[c.ID] = p.admitCount
	p.admitCount++
	p.inner.OnAdmit(c)
}
func (p *orderProbe) OnScheduled(c *function.Call) {
	adm, ok := p.admitOf[c.ID]
	if !ok {
		adm = -1
	}
	p.sched = append(p.sched, schedEntry{c, adm, p.admitCount})
	p.inner.OnScheduled(c)
}
func (p *orderProbe) RetryBase(c *function.Call) (time.Duration, bool) {
	return p.inner.RetryBase(c)
}

// checkNoDeadlineInversion verifies one replica's schedule sequence: for
// any two calls of the same function where the later-scheduled one was
// already admitted when the earlier was scheduled, the earlier must not
// have the worse (deadline, ID) key. Same function ⇒ same criticality,
// so this is exactly the within-class ordering contract. Functions are
// walked in name order, so a failure reports the same inversion on
// every run.
func checkNoDeadlineInversion(t *testing.T, label string, probe *orderProbe) {
	t.Helper()
	// Index schedule entries per function to keep the pair scan local.
	byFunc := map[string][]schedEntry{}
	for _, e := range probe.sched {
		byFunc[e.c.Spec.Name] = append(byFunc[e.c.Spec.Name], e)
	}
	names := make([]string, 0, len(byFunc))
	for name := range byFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entries := byFunc[name]
		for i, a := range entries {
			for _, b := range entries[i+1:] {
				if b.admitted < 0 || b.admitted >= a.watermark {
					continue // b was not yet admitted when a was scheduled
				}
				if scheduler.Less(b.c, a.c) {
					t.Fatalf("%s: %s scheduled call %d (deadline %v) before available call %d (deadline %v) with the earlier key",
						label, name, a.c.ID, a.c.Deadline, b.c.ID, b.c.Deadline)
				}
			}
		}
	}
}

// TestPolicyNeverInvertsDeadlines: for every shipped policy and two
// seeded workloads, dispatch order within a criticality class never
// inverts deadlines. The probe wraps the real policy via PolicyFactory
// and replays its OnAdmit/OnScheduled stream against the FuncBuffer
// ordering oracle.
func TestPolicyNeverInvertsDeadlines(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(11); seed <= 12; seed++ {
				var probes []*orderProbe
				h := build(seed, func(c *core.Config, _ *workload.PopulationConfig) {
					c.Scheduler.PolicyFactory = func() policy.Policy {
						p := &orderProbe{inner: policy.New(name)}
						probes = append(probes, p)
						return p
					}
				})
				h.P.Engine.RunFor(90 * time.Minute)
				scheduled := 0
				for _, p := range probes {
					scheduled += len(p.sched)
				}
				if scheduled == 0 {
					t.Fatalf("seed %d: no calls scheduled; the property is vacuous", seed)
				}
				for i, p := range probes {
					checkNoDeadlineInversion(t, fmt.Sprintf("%s seed %d replica %d", name, seed, i), p)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Metamorphic + differential oracles, per policy: every shipped policy
// must hold the platform invariants under chaos, preserve scale
// invariance, dominate its own chaos run, and agree with the independent
// conventional-model baseline on a feasible workload.
// ---------------------------------------------------------------------------

func withPolicy(name string) func(*core.Config, *workload.PopulationConfig) {
	return func(c *core.Config, _ *workload.PopulationConfig) {
		c.Scheduler.Policy = name
	}
}

// TestPolicyHoldsInvariantsUnderChaos: the full invariant probe set stays
// clean for every policy while a correlated crash and a shard outage
// churn leases — even while leases expire, calls redeliver and queues
// evacuate — both with the overload-resilience valves off and with
// them live.
func TestPolicyHoldsInvariantsUnderChaos(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			for _, row := range []struct {
				name       string
				resilience bool
			}{{"resilience off", false}, {"resilience on", true}} {
				t.Run(row.name, func(t *testing.T) {
					h := build(31, func(c *core.Config, p *workload.PopulationConfig) {
						withPolicy(name)(c, p)
						c.Invariants.Enabled = true
						if row.resilience {
							c.Resilience = c.Resilience.EnableAll()
						}
					})
					inj := chaos.NewInjector(h.P, rng.New(9000))
					h.P.Engine.Schedule(30*time.Minute, func() {
						victims := inj.CorrelatedCrash(h.P.Regions()[0].ID, 0.5, true)
						inj.ShardOutage(h.P.Regions()[1].ID, 0, 45*time.Minute)
						h.P.Engine.Schedule(time.Hour, func() {
							for _, idx := range victims {
								inj.RestartWorker(h.P.Regions()[0].ID, idx)
							}
						})
					})
					h.P.Engine.RunFor(4 * time.Hour)
					if vs := h.P.Inv.Final(); len(vs) > 0 {
						t.Fatalf("policy %s: %d invariant violations under chaos; first: %s",
							name, h.P.Inv.TotalViolations(), vs[0])
					}
					if h.P.Acked() == 0 {
						t.Fatalf("policy %s acked nothing; invariant pass is vacuous", name)
					}
				})
			}
		})
	}
}

// shared holds seeded runs that two tests check different properties
// of, so each run happens once per test binary. The runs are seeded and
// the tests sequential, so a second reader sees the same values the
// first run produced.
var shared = map[string]any{}

func sharedRun[V any](key string, f func() V) V {
	if v, ok := shared[key]; ok {
		return v.(V)
	}
	v := f()
	shared[key] = v
	return v
}

// scaleK is the factor the scale-invariance tests grow a system by.
const scaleK = 2

// scaleRuns is one policy's seed-23 run at 1× (24 workers) and at scaleK×
// (scaleK× the workers fed scaleK× the arrivals), both over 3 h.
func scaleRuns(name string) [2]outcome {
	return sharedRun("scale/"+name, func() [2]outcome {
		const window = 3 * time.Hour
		base := run(build(23, func(c *core.Config, p *workload.PopulationConfig) {
			withPolicy(name)(c, p)
			c.Cluster.TotalWorkers = 24
		}), window)
		scaled := run(build(23, func(c *core.Config, p *workload.PopulationConfig) {
			withPolicy(name)(c, p)
			c.Cluster.TotalWorkers = 24 * scaleK
			p.TotalRPS *= scaleK
		}), window)
		return [2]outcome{base, scaled}
	})
}

// TestScaleInvariance: k× the workers fed k× the arrivals is the same
// system, statistically, under every policy — the generator offers k×
// the calls and mean utilization is preserved (modestly better at scale
// is fine; multiplexing improves). TestPolicyScaleInvariance checks the
// drained fraction of the same runs.
func TestScaleInvariance(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			r := scaleRuns(name)
			base, scaled := r[0], r[1]
			if got := scaled.generated / base.generated; got < 1.7 || got > 2.3 {
				t.Fatalf("policy %s arrival scaling off: %.0f vs %.0f generated (ratio %.2f, want ~%d)",
					name, scaled.generated, base.generated, got, scaleK)
			}
			if base.util <= 0 || scaled.util <= 0 {
				t.Fatalf("policy %s zero utilization: base=%.3f scaled=%.3f", name, base.util, scaled.util)
			}
			if rel := math.Abs(base.util-scaled.util) / base.util; rel > 0.25 {
				t.Fatalf("policy %s utilization not scale-invariant: %.3f at 1x vs %.3f at %dx (rel diff %.2f)",
					name, base.util, scaled.util, scaleK, rel)
			}
		})
	}
}

// TestPolicyScaleInvariance: under every policy, k× the workers fed k×
// the arrivals preserves the drained fraction.
func TestPolicyScaleInvariance(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			r := scaleRuns(name)
			base, scaled := r[0], r[1]
			baseDrain := base.acked / base.generated
			scaledDrain := scaled.acked / scaled.generated
			if math.Abs(baseDrain-scaledDrain) > 0.10 {
				t.Fatalf("policy %s drain fraction not scale-invariant: %.3f at 1x vs %.3f at %dx",
					name, baseDrain, scaledDrain, scaleK)
			}
		})
	}
}

// chaosRuns is one policy's seed-31 run over 3 h without faults and with
// a correlated crash plus a shard outage injected at 30 min.
func chaosRuns(name string) (clean, faulted outcome) {
	r := sharedRun("chaos/"+name, func() [2]outcome {
		const window = 3 * time.Hour
		clean := run(build(31, withPolicy(name)), window)
		h := build(31, withPolicy(name))
		inj := chaos.NewInjector(h.P, rng.New(9000))
		h.P.Engine.Schedule(30*time.Minute, func() {
			inj.CorrelatedCrash(h.P.Regions()[0].ID, 0.8, true)
			inj.ShardOutage(h.P.Regions()[1].ID, 0, time.Hour)
		})
		return [2]outcome{clean, run(h, window)}
	})
	return r[0], r[1]
}

// TestChaosDominance: under every policy, the chaos run is a fair and
// non-vacuous rival to the fault-free run — the same seed offers the
// same calls whether or not faults bite, and the faults leave something
// acked. TestPolicyChaosDominance checks the dominance itself.
func TestChaosDominance(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			clean, faulted := chaosRuns(name)
			if clean.generated != faulted.generated {
				t.Fatalf("policy %s: generators diverged: %.0f vs %.0f",
					name, clean.generated, faulted.generated)
			}
			if faulted.acked == 0 {
				t.Fatalf("policy %s: chaos run acked nothing; fault too large for the property to be meaningful", name)
			}
		})
	}
}

// TestPolicyChaosDominance: under every policy, a fault-free run acks at
// least as much as the same seeded run with injected faults — faults can
// only remove capacity, never add it.
func TestPolicyChaosDominance(t *testing.T) {
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			clean, faulted := chaosRuns(name)
			if faulted.acked > clean.acked {
				t.Fatalf("policy %s: chaos run acked MORE than fault-free: %.0f vs %.0f",
					name, faulted.acked, clean.acked)
			}
		})
	}
}

const (
	differentialSeed   = 43
	differentialWindow = 2 * time.Hour
)

// baselineOutcome is the conventional model's fingerprint of a run.
type baselineOutcome struct {
	generated, completed, coldStarts float64
}

// baselineRun feeds the conventional model the seed-43 call stream
// build draws, on the same number of hosts, for 2 h. The conventional
// model has no scheduling policy, so one run serves every policy.
func baselineRun() baselineOutcome {
	return sharedRun("baseline", func() baselineOutcome {
		h0 := build(differentialSeed, nil)
		engine := sim.NewEngine()
		pop := workload.NewPopulation(h0.Pcfg, rng.New(differentialSeed+100))
		params := baseline.DefaultParams()
		params.Hosts = h0.P.Topo.TotalWorkers()
		bp := baseline.New(engine, params)
		gen := workload.NewGenerator(engine, pop, []float64{1},
			func(_ cluster.RegionID, _ string, c *function.Call) error {
				bp.Submit(c)
				return nil
			}, rng.New(differentialSeed+200))
		gen.Start()
		engine.RunFor(differentialWindow)
		return baselineOutcome{
			generated:  gen.Generated.Value(),
			completed:  bp.Completed.Value(),
			coldStarts: bp.ColdStarts.Value(),
		}
	})
}

// TestDifferentialBaseline: the conventional per-function-container
// model, the oracle TestPolicyDifferentialBaseline compares every policy
// with, drains the bulk of a feasible workload while paying the cold
// starts XFaaS never does.
func TestDifferentialBaseline(t *testing.T) {
	bl := baselineRun()
	if drain := bl.completed / bl.generated; drain < 0.5 {
		t.Fatalf("baseline drained only %.2f of a feasible workload", drain)
	}
	if bl.coldStarts == 0 {
		t.Fatal("conventional model paid no cold starts; differential setup is not exercising it")
	}
}

// TestPolicyDifferentialBaseline: every policy must drain the bulk of a
// feasible workload the independent conventional-model implementation
// also drains — the two systems act as oracles for each other.
func TestPolicyDifferentialBaseline(t *testing.T) {
	bl := baselineRun()
	blDrain := bl.completed / bl.generated
	for _, name := range config.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			xf := run(build(differentialSeed, withPolicy(name)), differentialWindow)
			// Identical population + generator seeds: the streams match.
			if xf.generated != bl.generated {
				t.Fatalf("policy %s: call streams diverged: %.0f vs %.0f",
					name, xf.generated, bl.generated)
			}
			xfDrain := xf.acked / xf.generated
			if xfDrain < 0.5 {
				t.Fatalf("policy %s drained only %.2f of a feasible workload", name, xfDrain)
			}
			if r := xfDrain / blDrain; r < 0.5 || r > 2.0 {
				t.Fatalf("policy %s disagrees with the baseline oracle: %.2f vs %.2f drained",
					name, xfDrain, blDrain)
			}
		})
	}
}
