package core

import (
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
	"xfaas/internal/workload"
)

// smallPlatform builds a 3-region platform with a modest workload for
// fast integration tests. Returns the platform and its running generator.
func smallPlatform(t *testing.T, mutate func(*Config, *workload.PopulationConfig)) (*Platform, *workload.Generator, *workload.Population) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Regions = 3
	cfg.CodePushInterval = 0 // keep JIT state steady unless a test wants pushes
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 40
	pcfg.TotalRPS = 10
	pcfg.SpikyFunctions = 0
	// No midnight pipeline spike by default: these tests assert steady
	// pipeline health, not time-shifted drain behaviour.
	pcfg.MidnightSpikeFrac = 0
	if mutate != nil {
		mutate(&cfg, &pcfg)
	}
	pop := workload.NewPopulation(pcfg, rng.New(cfg.Seed+100))
	// Provision the pool from the population's analytic demand (66%
	// target with headroom for the midnight spike).
	if cfg.Cluster.TotalWorkers == 48 { // caller did not override
		cfg.Cluster.TotalWorkers = ProvisionWorkers(cfg.Worker,
			pop.ExpectedMIPS()*1.4, pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS)*1.4,
			0.66, 2*cfg.Cluster.Regions)
	}
	p := New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(cfg.Seed+200))
	gen.Start()
	return p, gen, pop
}

// TestSubmitterFlushIsOneGridPerPlatform: an idle region costs the engine
// exactly its own events: the scheduler's poll ticks, the WorkerLB's
// heartbeat probes and the delivery of each GTC matrix to its scheduler.
// Its two submitters add none, because one flush grid serves every region
// of the platform.
func TestSubmitterFlushIsOneGridPerPlatform(t *testing.T) {
	processed := func(regions int) uint64 {
		cfg := DefaultConfig()
		cfg.Cluster.Regions = regions
		p := New(cfg, function.NewRegistry())
		p.Engine.RunFor(time.Minute)
		return p.Engine.Processed()
	}
	perRegion := uint64(time.Minute/scheduler.DefaultParams().PollInterval +
		time.Minute/workerlb.HeartbeatInterval + time.Minute/gtcInterval)
	if got := processed(3) - processed(2); got != perRegion {
		t.Fatalf("a third idle region fired %d events in a minute, want %d (poll, heartbeat and matrix delivery only)",
			got, perRegion)
	}
}

func TestPlatformEndToEnd(t *testing.T) {
	p, gen, _ := smallPlatform(t, nil)
	p.Engine.RunFor(2 * time.Hour)
	if gen.Generated.Value() < 1000 {
		t.Fatalf("generated = %v, expected thousands", gen.Generated.Value())
	}
	acked := p.Acked()
	if acked < gen.Generated.Value()*0.5 {
		t.Fatalf("acked %v of %v generated: platform not draining", acked, gen.Generated.Value())
	}
	if p.MeanUtilization() <= 0 {
		t.Fatal("zero utilization under load")
	}
	if p.Executed.Len() == 0 {
		t.Fatal("no executed series recorded")
	}
}

func TestPlatformUtilizationSampling(t *testing.T) {
	p, _, _ := smallPlatform(t, nil)
	p.Engine.RunFor(10 * time.Minute)
	for _, reg := range p.Regions() {
		if reg.UtilSeries.Len() == 0 || reg.MemSeries.Len() == 0 {
			t.Fatalf("region %d has no sampled series", reg.ID)
		}
		// Memory must at least include the runtime base.
		if reg.MemSeries.Value(0) < worker.RuntimeBaseMB {
			t.Fatalf("sampled memory %v below runtime base", reg.MemSeries.Value(0))
		}
	}
}

func TestPlatformLocalityInstalled(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.Cluster.Regions = 1
		c.Cluster.TotalWorkers = 12
		c.LocalityGroups = 4
	})
	p.Engine.RunFor(time.Minute)
	for _, reg := range p.Regions() {
		a := reg.LB.Assignment()
		if a == nil {
			t.Fatalf("region %d has no locality assignment", reg.ID)
		}
		if a.Groups < 1 {
			t.Fatalf("region %d groups = %d", reg.ID, a.Groups)
		}
	}
}

func TestPlatformLocalitySkippedForTinyPools(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.Cluster.Regions = 3
		c.Cluster.TotalWorkers = 6 // 2 workers per region < 2x groups
	})
	p.Engine.RunFor(time.Minute)
	for _, reg := range p.Regions() {
		if reg.LB.Assignment() != nil {
			t.Fatalf("region %d installed locality groups on a tiny pool", reg.ID)
		}
	}
}

func TestPlatformLocalityDisabled(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.LocalityGroups = 0
	})
	p.Engine.RunFor(time.Minute)
	if p.Regions()[0].LB.Assignment() != nil {
		t.Fatal("locality assignment installed despite being disabled")
	}
}

func TestPlatformSpikyClientSegregation(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, pc *workload.PopulationConfig) {
		pc.SpikyFunctions = 1
		pc.SpikeBurstRPS = 50
	})
	p.Engine.RunFor(20 * time.Minute) // the first burst is at t=0..15m
	spiky := p.Regions()[0].Spiky.Submitted.Value()
	var spikyAll, normalAll float64
	for _, reg := range p.Regions() {
		spikyAll += reg.Spiky.Submitted.Value()
		normalAll += reg.Normal.Submitted.Value()
	}
	if spikyAll == 0 {
		t.Fatal("spiky client not routed to spiky pool")
	}
	if normalAll == 0 {
		t.Fatal("normal traffic missing")
	}
	_ = spiky
}

func TestPlatformCodePushRollsVersions(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.CodePushInterval = time.Hour
	})
	p.Engine.RunFor(2*time.Hour + 30*time.Minute)
	if p.Distributor.Pushes == 0 {
		t.Fatal("no code pushes completed")
	}
	if p.codeVersion != 2 {
		t.Fatalf("%d rollouts started, want 2", p.codeVersion)
	}
	// The fleet-wide phase is seeded: every region precompiled hot code.
	for _, reg := range p.Regions() {
		var seeded uint64
		for _, w := range reg.Workers {
			seeded += w.Runtime.SeededCompilations
		}
		if seeded == 0 {
			t.Fatalf("region %v took no seeded rollout", reg.ID)
		}
	}
}

func TestPlatformGTCPublishesUnderImbalance(t *testing.T) {
	p, _, _ := smallPlatform(t, nil)
	p.Engine.RunFor(5 * time.Minute)
	if p.GTC == nil {
		t.Fatal("GTC not constructed")
	}
	if p.GTC.Computations.Value() == 0 {
		t.Fatal("GTC never computed a matrix")
	}
}

func TestPlatformUnknownRegionRejected(t *testing.T) {
	p, _, pop := smallPlatform(t, nil)
	c := pop.Models[0].NewCall(0)
	if err := p.Submit(cluster.RegionID(99), "client", c); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestPlatformControllerDowntimeSurvival(t *testing.T) {
	p, _, _ := smallPlatform(t, nil)
	p.Engine.RunFor(10 * time.Minute)
	ackedBefore := p.Acked()
	// Configuration distribution stalls for 30 minutes: no write of the
	// central controllers reaches a subscriber inside the window. The
	// critical path must keep executing on cached configuration at a
	// comparable rate.
	p.Store.PropagationDelay = time.Hour
	p.Engine.RunFor(30 * time.Minute)
	ackedDuring := p.Acked() - ackedBefore
	if ackedDuring < ackedBefore {
		t.Fatalf("platform stalled during controller downtime: %v acked in 30m vs %v in the first 10m",
			ackedDuring, ackedBefore)
	}
}

func TestPlatformDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		p, gen, _ := smallPlatform(t, nil)
		p.Engine.RunFor(15 * time.Minute)
		return gen.Generated.Value(), p.Acked()
	}
	g1, a1 := run()
	g2, a2 := run()
	if g1 != g2 || a1 != a2 {
		t.Fatalf("same seed diverged: gen %v vs %v, acked %v vs %v", g1, g2, a1, a2)
	}
}

func TestPlatformDistinctFunctionsBounded(t *testing.T) {
	p, _, pop := smallPlatform(t, func(c *Config, pc *workload.PopulationConfig) {
		pc.Functions = 60
	})
	p.Engine.RunFor(time.Hour)
	total := pop.Registry.Len()
	for _, reg := range p.Regions() {
		for _, w := range reg.Workers {
			if n := w.DistinctFuncsSince(0); n > total {
				t.Fatalf("worker saw %d distinct functions of %d", n, total)
			}
		}
	}
	_ = function.TriggerQueue
}

func TestPlatformRegionOutageRedelivery(t *testing.T) {
	p, gen, _ := smallPlatform(t, func(c *Config, pc *workload.PopulationConfig) {
		c.LeaseTimeout = 5 * time.Minute
	})
	p.Engine.RunFor(20 * time.Minute)
	// Region 0's entire worker pool dies.
	victim := p.Regions()[0]
	for _, w := range victim.Workers {
		w.Fail()
	}
	p.Engine.RunFor(time.Hour)
	// The platform keeps executing: survivors absorb the region's load.
	genTotal := gen.Generated.Value()
	if p.Acked() < genTotal*0.5 {
		t.Fatalf("acked %v of %v during region outage", p.Acked(), genTotal)
	}
	// Whatever the dead region's scheduler held was evacuated (or it
	// held nothing); either way it must not sit on work it cannot run.
	if victim.Sched.Buffered() != 0 || victim.Sched.RunQLen() != 0 {
		t.Fatalf("dead region still holds work: buffered=%d runq=%d (evacuated=%v)",
			victim.Sched.Buffered(), victim.Sched.RunQLen(), victim.Sched.Evacuated.Value())
	}
	// Region recovers; it resumes executing.
	for _, w := range victim.Workers {
		w.Recover()
	}
	ackedAtRecovery := victim.Sched.Acked.Value()
	p.Engine.RunFor(30 * time.Minute)
	if victim.Sched.Acked.Value() <= ackedAtRecovery {
		t.Fatal("recovered region never resumed execution")
	}
}

func TestPlatformSingleWorkerFailureTransparent(t *testing.T) {
	p, gen, _ := smallPlatform(t, nil)
	p.Engine.RunFor(10 * time.Minute)
	// One worker dies mid-run; its in-flight calls are NACKed and
	// redelivered, so clients never observe the loss.
	w := p.Regions()[1].Workers[0]
	w.Fail()
	p.Engine.RunFor(time.Hour)
	if p.Acked() < gen.Generated.Value()*0.6 {
		t.Fatalf("acked %v of %v after a worker failure", p.Acked(), gen.Generated.Value())
	}
}

func TestAddOnExecutedComposes(t *testing.T) {
	p, _, _ := smallPlatform(t, nil)
	var a, b int
	p.AddOnExecuted(func(*function.Call) { a++ })
	p.AddOnExecuted(func(*function.Call) { b++ })
	p.Engine.RunFor(5 * time.Minute)
	if a == 0 || a != b {
		t.Fatalf("listeners diverged: a=%d b=%d", a, b)
	}
}

func TestSchedulerReplicasShareWorkSafely(t *testing.T) {
	p, gen, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.SchedulersPerRegion = 3
	})
	p.Engine.RunFor(time.Hour)
	if got := len(p.Regions()[0].Scheds); got != 3 {
		t.Fatalf("replicas = %d", got)
	}
	// Leases ensure each call is executed by exactly one replica; totals
	// must reconcile with generation (minus in-flight and future-start).
	acked := p.Acked()
	if acked < gen.Generated.Value()*0.5 {
		t.Fatalf("acked %v of %v with 3 replicas", acked, gen.Generated.Value())
	}
	// Work actually spread: at least two replicas in some region polled.
	busy := 0
	for _, sc := range p.Regions()[0].Scheds {
		if sc.Polled.Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d replicas polled; work not shared", busy)
	}
	// No call acked twice: DurableQ Ack is single-shot, so per-shard
	// acked never exceeds enqueued.
	for _, reg := range p.Regions() {
		for _, sh := range reg.Shards {
			if sh.Acked.Value() > sh.Enqueued.Value() {
				t.Fatalf("shard over-acked: %v > %v", sh.Acked.Value(), sh.Enqueued.Value())
			}
		}
	}
}

func TestSchedulerReplicaCrashFailover(t *testing.T) {
	p, gen, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.SchedulersPerRegion = 2
		c.LeaseTimeout = 5 * time.Minute
	})
	p.Engine.RunFor(15 * time.Minute)
	// One replica per region crashes; leases expire and the survivor
	// takes over its calls.
	for _, reg := range p.Regions() {
		reg.Scheds[0].Crash()
	}
	p.Engine.RunFor(90 * time.Minute)
	if p.Acked() < gen.Generated.Value()*0.5 {
		t.Fatalf("acked %v of %v after replica crashes", p.Acked(), gen.Generated.Value())
	}
}
