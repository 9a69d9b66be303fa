package main

import (
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/psim"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/workload"
)

// workloadDef is one benchmark workload. The simulated windows scale with
// the nominal -seconds so the smoke test can run the same code at 1/50
// size; the per-second rates are the frozen sizing constants (simulated
// minutes per nominal second, sized so -seconds 10 gives a timed window
// of about 10 host seconds on the 2-core reference box, whose speed
// itself swings by a third between quiet and noisy spells).
type workloadDef struct {
	name string
	why  string
	// warmPerSec and windowPerSec are simulated minutes per nominal
	// second of warm-up (counted in setup_s) and of timed window.
	warmPerSec, windowPerSec float64
	// build constructs the simulation with generators started and any
	// fault script scheduled, at simulated time zero.
	build func(seed uint64, warm, window time.Duration, sp *spanRecorder) *rig
}

var workloads = []workloadDef{
	{
		name:         "loaded_day",
		why:          "paper operating point: 66% utilization with a deep time-shifted backlog, so the scheduler poll and the DurableQ scan do most of the work",
		warmPerSec:   2,
		windowPerSec: 10,
		build:        func(seed uint64, _, _ time.Duration, sp *spanRecorder) *rig { return buildDay(seed, false, sp) },
	},
	{
		name:         "observed_day",
		why:          "the identical simulation with tracing, invariants and SLO accounting on: the observer layers do a third of the work here and none in loaded_day",
		warmPerSec:   2,
		windowPerSec: 10,
		build:        func(seed uint64, _, _ time.Duration, sp *spanRecorder) *rig { return buildDay(seed, true, sp) },
	},
	{
		name:         "storm_defended",
		why:          "journaled retry storm under every defence: Nack, redelivery, budgets, dead letters, shedding, hedging and outlier ejection run only here",
		warmPerSec:   1,
		windowPerSec: 1.2,
		build:        buildStorm,
	},
	{
		name:         "partitioned_fleet",
		why:          "large fleet on the parallel engine: the per-call fixed path (generate, submit, route, enqueue), GC and sim.Group dominate; bypasses backlog-scan and retry work",
		warmPerSec:   0.5,
		windowPerSec: 1.2,
		build:        buildFleet,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// minutes converts a nominal host-second budget into the workload's
// warm-up and window lengths: whole simulated minutes, at least one.
func (d *workloadDef) minutes(seconds float64) (warm, window time.Duration) {
	whole := func(perSec float64) time.Duration {
		return time.Duration(max(1, int(seconds*perSec+0.5))) * time.Minute
	}
	return whole(d.warmPerSec), whole(d.windowPerSec)
}

// rig is one built simulation: one platform for the single-engine
// workloads, one per partition for partitioned_fleet.
type rig struct {
	plats []*core.Platform
	gens  []*workload.Generator
	// advance runs the simulation forward by d of simulated time.
	advance func(d time.Duration)
	// fleet is set for partitioned_fleet only.
	fleet *psim.Runner
}

func (r *rig) events() uint64 {
	if r.fleet != nil {
		return r.fleet.Group.Processed()
	}
	return r.plats[0].Engine.Processed()
}

func (r *rig) enginePending() int {
	n := 0
	for _, p := range r.plats {
		n += p.Engine.Pending()
	}
	return n
}

// structureSeed fixes the deployment: the function catalogue (whose
// per-function costs are heavy-tailed draws), the region topology and the
// platform's own internal streams. The -seed flag keys the input, which is
// the generated call stream: arrival counts, per-call resource draws and
// source regions. Keying the catalogue by -seed as well made throughput
// differ by 1.7x between seeds, which would bury any code change.
const structureSeed = 1

// reseed returns pop with every model's per-call draw stream re-keyed
// from src; specs, rates and arrival shapes are shared with pop.
func reseed(pop *workload.Population, src *rng.Source) *workload.Population {
	out := &workload.Population{Registry: pop.Registry, TeamOf: pop.TeamOf}
	for _, m := range pop.Models {
		nm := workload.NewModel(m.Spec, m.MeanRPS, m.Client, src.Split())
		nm.DiurnalAmp, nm.DiurnalPhase = m.DiurnalAmp, m.DiurnalPhase
		nm.MidnightSpikeMul, nm.Burst, nm.FutureStartFrac = m.MidnightSpikeMul, m.Burst, m.FutureStartFrac
		out.Models = append(out.Models, nm)
	}
	return out
}

// spikeFactor is the experiment rig's provisioning headroom over the
// population's analytic mean demand.
const spikeFactor = 1.35

// buildDay is loaded_day (observed=false) and observed_day: the default
// experiment rig at full scale, provisioned for 66% utilization.
func buildDay(seed uint64, observed bool, sp *spanRecorder) *rig {
	cfg := core.DefaultConfig()
	cfg.Seed = structureSeed
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 192
	pcfg.TotalRPS = 36
	pcfg.SpikeBurstRPS = 270
	pop := workload.NewPopulation(pcfg, rng.New(structureSeed+1000))
	pop = reseed(pop, rng.New(seed+1500))
	demand := pop.ExpectedMIPS() * spikeFactor
	mem := pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS) * spikeFactor
	cfg.Cluster.TotalWorkers = core.ProvisionWorkers(cfg.Worker, demand, mem, 0.66, 2*cfg.Cluster.Regions)
	cfg.Topo = cluster.Generate(cfg.Cluster, rng.New(structureSeed))
	if observed {
		cfg.Trace.Enabled = true
		cfg.Trace.SampleEvery = 1
		cfg.Invariants.Enabled = true
		cfg.Observe = cfg.Observe.EnableAll()
	}
	sp.install(&cfg)
	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), sp.wrapSubmit(p.SubmitFunc()), rng.New(seed+2000))
	gen.Start()
	return &rig{
		plats:   []*core.Platform{p},
		gens:    []*workload.Generator{gen},
		advance: p.Engine.RunFor,
	}
}

// buildStorm is storm_defended: the retry-storm mix ×6 on a journaled,
// fully defended fleet of one region and 32 workers. The fault script is
// relative to the end of warm-up: the backend is 100% buggy and one
// worker gray for the first two thirds of the window, then both heal.
//
// The fleet is sized so that it is saturated on every seed (256 runtime
// threads against 288 threads' worth of offered work before the storm
// starts). Nearer the knee the leased backlog is bistable: at four
// regions and 48 workers the same size took 3.3 s on one seed and 7.3 s
// on the next, because journal compaction cost follows the backlog, and
// at one region and 40 workers three seeds in twenty still broke away.
func buildStorm(seed uint64, warm, window time.Duration, sp *spanRecorder) *rig {
	cfg := core.DefaultConfig()
	cfg.Seed = structureSeed
	cfg.Cluster.Regions = 1
	cfg.Cluster.TotalWorkers = 32
	cfg.Worker.MaxConcurrency = 8
	cfg.Worker.FailureSlowdown = 1.0
	cfg.CodePushInterval = 0
	cfg.EnableRIM = false
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	cfg.Resilience = cfg.Resilience.EnableAll()
	cfg.GrayDetection.Enabled = true
	cfg.Durability.JournalEnabled = true
	mix := workload.DefaultStormMix("backend")
	mix.StormFunctions *= 6
	mix.StormRPSPerFunc = 1
	mix.CleanFunctions *= 6
	mix.CleanRPSPerFunc = 2
	pop := &workload.Population{Registry: function.NewRegistry(), TeamOf: map[string]string{}}
	workload.BuildStormMix(pop, mix, rng.New(structureSeed+4000))
	pop = reseed(pop, rng.New(seed+1500))
	sp.install(&cfg)
	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), sp.wrapSubmit(p.SubmitFunc()), rng.New(seed+2000))
	gen.Start()
	inj := chaos.NewInjector(p, rng.New(structureSeed+4200))
	storm := window * 2 / 3
	p.Engine.At(sim.Time(warm), func() {
		inj.BuggyFor("backend", 1.0, storm)
		inj.GrayWorker(0, 0, 4)
	})
	p.Engine.At(sim.Time(warm+storm), func() { inj.ClearGray(0, 0) })
	return &rig{
		plats:   []*core.Platform{p},
		gens:    []*workload.Generator{gen},
		advance: p.Engine.RunFor,
	}
}

// fleetOptions is partitioned_fleet's psim configuration. Minutes only
// labels the report header; the harness advances the group itself.
func fleetOptions(warm, window time.Duration) psim.Options {
	o := psim.DefaultOptions()
	o.Parts = 4
	o.Regions = 20
	o.TotalWorkers = 2000
	o.Functions = 240
	o.RPS = 1200
	o.CrossFrac = 0.1
	o.Prewarm = true
	o.Seed = structureSeed
	o.Minutes = int((warm + window) / time.Minute)
	return o
}

// newFleet builds the partitioned platform and swaps each partition's
// generator for one keyed by seed, over the same every-P-th-model share
// of the population that psim.New deals it.
func newFleet(seed uint64, warm, window time.Duration, seq bool) *psim.Runner {
	opts := fleetOptions(warm, window)
	opts.Seq = seq
	r := psim.New(opts)
	pop := reseed(r.Pop, rng.New(seed+1500))
	for i, part := range r.Parts {
		sub := &workload.Population{Registry: pop.Registry, TeamOf: pop.TeamOf}
		for j := i; j < len(pop.Models); j += len(r.Parts) {
			sub.Models = append(sub.Models, pop.Models[j])
		}
		plat := part.Platform
		part.Generator = workload.NewGenerator(plat.Engine, sub, plat.Topo.CapacityShare(),
			plat.SubmitFunc(), rng.New(seed+2000+uint64(i)))
	}
	return r
}

// buildFleet performs psim.Runner.Run's steps itself (start generators,
// advance the group) so the run can be split into warm-up and window.
func buildFleet(seed uint64, warm, window time.Duration, _ *spanRecorder) *rig {
	r := newFleet(seed, warm, window, false)
	rg := &rig{fleet: r}
	for _, part := range r.Parts {
		rg.plats = append(rg.plats, part.Platform)
		rg.gens = append(rg.gens, part.Generator)
		part.Generator.Start()
	}
	deadline := sim.Time(0)
	rg.advance = func(d time.Duration) {
		deadline += d
		r.Group.RunUntil(deadline)
	}
	return rg
}
