package proptest

import (
	"fmt"
	"math"
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
// ahead of an earlier-deadline call that was already admitted. Checked
// at two layers: the FuncBuffer directly (table-driven + generated), and
// every shipped policy end to end through an order-recording probe.
// ---------------------------------------------------------------------------

func mkCall(id uint64, spec *function.Spec, deadline time.Duration) *function.Call {
	return &function.Call{ID: id, Spec: spec, Deadline: sim.Time(deadline)}
}

// TestFuncBufferPopOrderTable pins the (criticality desc, deadline asc,
// ID asc) pop order on hand-picked shapes.
func TestFuncBufferPopOrderTable(t *testing.T) {
	spec := func(crit function.Criticality) *function.Spec {
		return &function.Spec{Name: "f", Criticality: crit}
	}
	lo, hi := spec(function.CritLow), spec(function.CritHigh)
	cases := []struct {
		label string
		in    []*function.Call
		want  []uint64
	}{
		{"deadline ascending", []*function.Call{
			mkCall(1, lo, 3*time.Hour), mkCall(2, lo, time.Hour), mkCall(3, lo, 2*time.Hour),
		}, []uint64{2, 3, 1}},
		{"criticality dominates deadline", []*function.Call{
			mkCall(1, lo, time.Minute), mkCall(2, hi, 10*time.Hour),
		}, []uint64{2, 1}},
		{"equal deadlines break by ID", []*function.Call{
			mkCall(9, lo, time.Hour), mkCall(3, lo, time.Hour), mkCall(7, lo, time.Hour),
		}, []uint64{3, 7, 9}},
		{"mixed", []*function.Call{
			mkCall(1, lo, time.Hour), mkCall(2, hi, 2*time.Hour),
			mkCall(3, hi, time.Hour), mkCall(4, lo, 30*time.Minute),
		}, []uint64{3, 2, 4, 1}},
	}
	for _, tc := range cases {
		b := scheduler.NewFuncBuffer(tc.in[0].Spec)
		for _, c := range tc.in {
			b.Push(c)
		}
		for i, want := range tc.want {
			got := b.Pop()
			if got == nil || got.ID != want {
				t.Fatalf("%s: pop %d = %v, want ID %d", tc.label, i, got, want)
			}
		}
	}
}

// TestFuncBufferPopOrderGenerated drives random push/pop interleavings
// from a seeded generator: every pop must be minimal (per scheduler.Less)
// among the calls currently buffered — the heap property stated as an
// oracle, independent of the heap implementation.
func TestFuncBufferPopOrderGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		crits := []function.Criticality{function.CritLow, function.CritNormal, function.CritHigh}
		spec := &function.Spec{Name: "g", Criticality: crits[src.Intn(len(crits))]}
		b := scheduler.NewFuncBuffer(spec)
		live := map[uint64]*function.Call{}
		id := uint64(0)
		for op := 0; op < 400; op++ {
			if b.Len() == 0 || src.Float64() < 0.6 {
				id++
				// Coarse deadline buckets force ID tiebreaks too.
				c := mkCall(id, spec, time.Duration(1+src.Intn(8))*time.Hour)
				b.Push(c)
				live[c.ID] = c
				continue
			}
			got := b.Pop()
			if got == nil {
				t.Fatalf("seed %d: pop returned nil with %d live", seed, len(live))
			}
			if _, ok := live[got.ID]; !ok {
				t.Fatalf("seed %d: popped unknown call %d", seed, got.ID)
			}
			for _, other := range live {
				if other.ID != got.ID && scheduler.Less(other, got) {
					t.Fatalf("seed %d: popped %d (deadline %v) while %d (deadline %v) was buffered and ordered earlier",
						seed, got.ID, got.Deadline, other.ID, other.Deadline)
				}
			}
			delete(live, got.ID)
		}
	}
}

// orderProbe wraps a real policy, recording per-replica admission and
// scheduling order through the policy hooks. It is itself a policy:
// installing it must not perturb the wrapped policy's behavior.
type orderProbe struct {
	inner      policy.Policy
	admitOf    map[uint64]int // call ID → admission sequence number
	admitCount int
	sched      []schedEntry
}

type schedEntry struct {
	c *function.Call
	// watermark is the number of admissions this replica had seen when
	// the call was scheduled: any call with admitOf < watermark was
	// already available to schedule.
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
	p.sched = append(p.sched, schedEntry{c, p.admitCount})
	p.inner.OnScheduled(c)
}
func (p *orderProbe) RetryBase(c *function.Call) (time.Duration, bool) {
	return p.inner.RetryBase(c)
}

// checkNoDeadlineInversion verifies one replica's schedule sequence: for
// any two calls of the same function where the later-scheduled one was
// already admitted when the earlier was scheduled, the earlier must not
// have the worse (deadline, ID) key. Same function ⇒ same criticality,
// so this is exactly the within-class ordering contract.
func checkNoDeadlineInversion(t *testing.T, label string, probe *orderProbe) {
	t.Helper()
	// Index schedule entries per function to keep the pair scan local.
	byFunc := map[string][]schedEntry{}
	for _, e := range probe.sched {
		byFunc[e.c.Spec.Name] = append(byFunc[e.c.Spec.Name], e)
	}
	for name, entries := range byFunc {
		for i, a := range entries {
			for _, b := range entries[i+1:] {
				adm, ok := probe.admitOf[b.c.ID]
				if !ok || adm >= a.watermark {
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

// TestPolicyNeverInvertsDeadlines is the satellite property: for every
// shipped policy and a seeded workload, dispatch order within a
// criticality class never inverts deadlines. The probe wraps the real
// policy via PolicyFactory and replays its OnAdmit/OnScheduled stream
// against the FuncBuffer ordering oracle.
func TestPolicyNeverInvertsDeadlines(t *testing.T) {
	for _, name := range config.PolicyNames() {
		name := name
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
// churn leases — with the overload-resilience valves live too.
func TestPolicyHoldsInvariantsUnderChaos(t *testing.T) {
	for _, name := range config.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			h := build(31, func(c *core.Config, p *workload.PopulationConfig) {
				withPolicy(name)(c, p)
				c.Invariants.Enabled = true
				c.Resilience = c.Resilience.EnableAll()
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
			h.P.Engine.RunFor(3 * time.Hour)
			if vs := h.P.Inv.Final(); len(vs) > 0 {
				t.Fatalf("policy %s: %d invariant violations under chaos; first: %s",
					name, h.P.Inv.TotalViolations(), vs[0])
			}
			if h.P.Acked() == 0 {
				t.Fatalf("policy %s acked nothing; invariant pass is vacuous", name)
			}
		})
	}
}

// TestPolicyScaleInvariance: k× workers fed k× arrivals must preserve the
// drained fraction under every policy.
func TestPolicyScaleInvariance(t *testing.T) {
	const k = 2
	for _, name := range config.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := run(build(23, func(c *core.Config, p *workload.PopulationConfig) {
				withPolicy(name)(c, p)
				c.Cluster.TotalWorkers = 24
			}), 2*time.Hour)
			scaled := run(build(23, func(c *core.Config, p *workload.PopulationConfig) {
				withPolicy(name)(c, p)
				c.Cluster.TotalWorkers = 24 * k
				p.TotalRPS *= k
			}), 2*time.Hour)
			baseDrain := base.acked / base.generated
			scaledDrain := scaled.acked / scaled.generated
			if math.Abs(baseDrain-scaledDrain) > 0.10 {
				t.Fatalf("policy %s drain fraction not scale-invariant: %.3f at 1x vs %.3f at %dx",
					name, baseDrain, scaledDrain, k)
			}
		})
	}
}

// TestPolicyChaosDominance: under every policy, a fault-free run acks at
// least as much as the same seeded run with injected faults.
func TestPolicyChaosDominance(t *testing.T) {
	const window = 2 * time.Hour
	for _, name := range config.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			clean := run(build(31, withPolicy(name)), window)
			h := build(31, withPolicy(name))
			inj := chaos.NewInjector(h.P, rng.New(9000))
			h.P.Engine.Schedule(30*time.Minute, func() {
				inj.CorrelatedCrash(h.P.Regions()[0].ID, 0.8, true)
				inj.ShardOutage(h.P.Regions()[1].ID, 0, time.Hour)
			})
			faulted := run(h, window)
			if faulted.acked > clean.acked {
				t.Fatalf("policy %s: chaos run acked MORE than fault-free: %.0f vs %.0f",
					name, faulted.acked, clean.acked)
			}
			if faulted.acked == 0 {
				t.Fatalf("policy %s: chaos run acked nothing", name)
			}
			if clean.generated != faulted.generated {
				t.Fatalf("policy %s: generators diverged: %.0f vs %.0f",
					name, clean.generated, faulted.generated)
			}
		})
	}
}

// TestPolicyDifferentialBaseline: every policy must drain the bulk of a
// feasible workload the independent conventional-model implementation
// also drains — the two systems act as oracles for each other.
func TestPolicyDifferentialBaseline(t *testing.T) {
	const window = 2 * time.Hour
	const seed = 43

	// One baseline run: the conventional model has no scheduling policy.
	h0 := build(seed, nil)
	engine := sim.NewEngine()
	pop := workload.NewPopulation(popConfigOf(h0), rng.New(seed+100))
	params := baseline.DefaultParams()
	params.Hosts = h0.P.Topo.TotalWorkers()
	bp := baseline.New(engine, params)
	gen := workload.NewGenerator(engine, pop, []float64{1},
		func(_ cluster.RegionID, _ string, c *function.Call) error {
			bp.Submit(c)
			return nil
		}, rng.New(seed+200))
	gen.Start()
	engine.RunFor(window)
	blDrain := bp.Completed.Value() / gen.Generated.Value()
	if blDrain < 0.5 {
		t.Fatalf("baseline drained only %.2f of a feasible workload", blDrain)
	}

	for _, name := range config.PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			xf := run(build(seed, withPolicy(name)), window)
			if xf.generated != gen.Generated.Value() {
				t.Fatalf("policy %s: call streams diverged: %.0f vs %.0f",
					name, xf.generated, gen.Generated.Value())
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
