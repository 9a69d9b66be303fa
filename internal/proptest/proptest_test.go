package proptest

import (
	"testing"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

// harness is a built platform + generator with the config its
// population was drawn from.
type harness struct {
	P    *core.Platform
	Gen  *workload.Generator
	Pcfg workload.PopulationConfig
}

// build constructs a 3-region platform with a steady workload (no spikes,
// no diurnal cycle) so run-to-run comparisons isolate the variable under
// test. mutate may adjust both configs before construction.
func build(seed uint64, mutate func(*core.Config, *workload.PopulationConfig)) *harness {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Cluster.Regions = 3
	cfg.CodePushInterval = 0
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 40
	pcfg.TotalRPS = 10
	pcfg.SpikyFunctions = 0
	pcfg.MidnightSpikeFrac = 0
	pcfg.DiurnalAmp = 0
	cfg.Cluster.TotalWorkers = 0 // sentinel: auto-provision unless mutate sets it
	if mutate != nil {
		mutate(&cfg, &pcfg)
	}
	pop := workload.NewPopulation(pcfg, rng.New(cfg.Seed+100))
	if cfg.Cluster.TotalWorkers == 0 {
		cfg.Cluster.TotalWorkers = core.ProvisionWorkers(cfg.Worker,
			pop.ExpectedMIPS()*1.4, pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS)*1.4,
			0.66, 2*cfg.Cluster.Regions)
	}
	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(cfg.Seed+200))
	gen.Start()
	return &harness{P: p, Gen: gen, Pcfg: pcfg}
}

// outcome is the comparable fingerprint of a run.
type outcome struct {
	generated float64
	acked     float64
	util      float64
}

func run(h *harness, d time.Duration) outcome {
	h.P.Engine.RunFor(d)
	return outcome{
		generated: h.Gen.Generated.Value(),
		acked:     h.P.Acked(),
		util:      h.P.MeanUtilization(),
	}
}

// TestCheckerIsObservationOnly: enabling the invariant engine must not
// change a single platform outcome. Same seed, invariants off vs on →
// byte-identical counters. This is the determinism contract that lets CI
// run every experiment with -invariants without re-baselining goldens.
func TestCheckerIsObservationOnly(t *testing.T) {
	off := run(build(11, nil), 2*time.Hour)
	on := run(build(11, func(c *core.Config, _ *workload.PopulationConfig) {
		c.Invariants.Enabled = true
	}), 2*time.Hour)
	if off != on {
		t.Fatalf("invariant checker perturbed the run:\n off=%+v\n  on=%+v", off, on)
	}
}

// TestProbeOrderPerturbation: moving the checker's probe events around in
// the event queue (a different evaluation interval interleaves them at
// different virtual times) must not change platform outcomes. Catches any
// accidental state mutation inside a probe.
func TestProbeOrderPerturbation(t *testing.T) {
	coarse := run(build(11, func(c *core.Config, _ *workload.PopulationConfig) {
		c.Invariants.Enabled = true
		c.Invariants.Interval = time.Minute
	}), 2*time.Hour)
	fine := run(build(11, func(c *core.Config, _ *workload.PopulationConfig) {
		c.Invariants.Enabled = true
		c.Invariants.Interval = 13 * time.Second
	}), 2*time.Hour)
	if coarse != fine {
		t.Fatalf("probe interval changed the run:\n 1m=%+v\n 13s=%+v", coarse, fine)
	}
}
