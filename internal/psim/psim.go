// Package psim runs a partitioned XFaaS simulation: P self-contained
// platform instances (each with its own engine partition, rate limiter,
// congestion manager, tracer, invariant checker and ID namespace) over
// contiguous region groups of ONE global topology, coupled only through
// the sim.Group fabric. Cross-partition traffic is handed off at routing
// time (queuelb.LB.Remote) and travels with the real inter-region
// latency, which is always at least the fabric lookahead — the condition
// conservative parallel simulation needs.
//
// The partition count P is a model parameter: a run with P=4 simulates a
// different (sharded) platform than P=1 and produces different numbers.
// What IS guaranteed, and what CI gates on, is execution determinism for
// a fixed P:
//
//   - run-twice: two runs with identical Options are byte-identical;
//   - parallel-vs-seq: Options.Seq=true runs the same P partitions on a
//     single goroutine (sim.Group.RunUntilSeq) and yields byte-identical
//     output to the multi-goroutine run;
//   - GOMAXPROCS invariance: the schedule is fixed by virtual time and
//     the (at, origin, seq) event key, never by OS scheduling.
package psim

import (
	"fmt"
	"strings"
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
	"xfaas/internal/workload"
)

// Options configure a partitioned run. The zero value is not runnable;
// use DefaultOptions as a base.
type Options struct {
	// Parts is the partition count P. Regions are split into P contiguous
	// groups (the first Regions%P groups get one extra region), so Parts
	// must not exceed Regions.
	Parts int
	// Seq runs the same P partitions on the single-goroutine reference
	// scheduler instead of P goroutines. Output must be byte-identical.
	Seq bool
	// Minutes of virtual time to simulate.
	Minutes int
	// Seed keys every stream: topology, population, per-partition
	// platforms, generators, fabric and chaos.
	Seed uint64
	// Regions and TotalWorkers size the global topology.
	Regions      int
	TotalWorkers int
	// Functions and RPS size the global population; models are dealt
	// round-robin to partitions, so each partition carries ~1/P of the
	// arrival rate.
	Functions int
	RPS       float64
	// CrossFrac is the fraction of submissions each QueueLB offers to the
	// fabric for migration to a remote partition.
	CrossFrac float64
	// Chaos arms partitionChaos in every partition: a gray worker, a rack
	// crash, a shard outage and a submitter crash.
	Chaos bool
	// Drain runs the evacuation drill in every partition: the partition's
	// first region drains at 0.3 of the run and undrains at 0.6 (the chaos
	// catalogue's evacuation scenario), with the gray-failure defenses
	// (detection, hedging) enabled so the full resilience stack is
	// exercised under the parallel scheduler.
	Drain bool
	// Traced enables per-call trace sampling.
	Traced bool
	// Invariants enables the ledger and platform probes in every
	// partition.
	Invariants bool
	// SLO enables core-second accounting and the burn-rate SLO engine in
	// every partition (config.Observe.EnableAll).
	SLO bool
	// Prewarm starts workers with all functions JIT-compiled. Disable for
	// very large fleets (PlatformHuge) where prewarming dominates setup.
	Prewarm bool
}

// DefaultOptions is a small partitioned run suitable for CI gates.
func DefaultOptions() Options {
	return Options{
		Parts:        2,
		Minutes:      10,
		Seed:         1,
		Regions:      8,
		TotalWorkers: 64,
		Functions:    96,
		RPS:          120,
		CrossFrac:    0.15,
		Prewarm:      true,
	}
}

// Partition is one platform shard plus its harness.
type Partition struct {
	// GlobalRegions lists this partition's regions in global IDs; local
	// region i of the sub-platform is GlobalRegions[i].
	GlobalRegions []cluster.RegionID
	Platform      *core.Platform
	Generator     *workload.Generator
	Injector      *chaos.Injector
}

// Runner owns a partitioned simulation.
type Runner struct {
	Opts  Options
	Topo  *cluster.Topology // the global topology
	Group *sim.Group
	Parts []*Partition
	Pop   *workload.Population

	// partOfRegion maps a global region ID to its partition index;
	// localOfRegion to its ID inside that partition's sub-topology.
	partOfRegion  []int
	localOfRegion []cluster.RegionID
}

// remoteTarget is one candidate destination for a fabric handoff.
type remoteTarget struct {
	part   int
	local  cluster.RegionID
	global cluster.RegionID
	weight float64
}

// partitionRegions splits n regions into p contiguous groups, the first
// n%p groups one larger.
func partitionRegions(n, p int) [][]cluster.RegionID {
	if p <= 0 || p > n {
		panic(fmt.Sprintf("psim: %d partitions over %d regions", p, n))
	}
	out := make([][]cluster.RegionID, p)
	base, extra := n/p, n%p
	next := 0
	for i := 0; i < p; i++ {
		k := base
		if i < extra {
			k++
		}
		for j := 0; j < k; j++ {
			out[i] = append(out[i], cluster.RegionID(next))
			next++
		}
	}
	return out
}

// New builds the partitioned platform. Everything is constructed on the
// calling goroutine; nothing runs until Run.
func New(opts Options) *Runner {
	if opts.Parts <= 0 {
		panic("psim: Parts must be positive")
	}
	root := rng.New(opts.Seed)
	ccfg := cluster.DefaultConfig()
	ccfg.Regions = opts.Regions
	ccfg.TotalWorkers = opts.TotalWorkers
	topo := cluster.Generate(ccfg, root.Split())

	popCfg := workload.DefaultPopulationConfig()
	popCfg.Functions = opts.Functions
	popCfg.TotalRPS = opts.RPS
	// The default burst rate is sized for the paper-scale experiments;
	// keep spiky functions proportionate to this run's platform.
	popCfg.SpikeBurstRPS = opts.RPS
	pop := workload.NewPopulation(popCfg, root.Split())

	groups := partitionRegions(topo.NumRegions(), opts.Parts)
	partOf := make([]int, topo.NumRegions())
	localOf := make([]cluster.RegionID, topo.NumRegions())
	for p, ids := range groups {
		for j, id := range ids {
			partOf[id] = p
			localOf[id] = cluster.RegionID(j)
		}
	}

	// Fabric lookahead between two partitions is the smallest latency any
	// cross-pair of their regions can have: every handoff travels with
	// its actual pair latency, so no message can undercut the lookahead.
	group := sim.NewGroup(opts.Parts, func(src, dst int) time.Duration {
		min := time.Duration(0)
		for _, a := range groups[src] {
			for _, b := range groups[dst] {
				if l := topo.Latency(a, b); min == 0 || l < min {
					min = l
				}
			}
		}
		return min
	})

	r := &Runner{
		Opts: opts, Topo: topo, Group: group, Pop: pop,
		partOfRegion: partOf, localOfRegion: localOf,
	}

	for p := 0; p < opts.Parts; p++ {
		partSeed := opts.Seed ^ (uint64(p+1) * 0x9E3779B97F4A7C15)
		cfg := core.DefaultConfig()
		cfg.Seed = partSeed
		cfg.Engine = group.Part(p)
		cfg.Topo = topo.Subset(groups[p])
		cfg.IDBase = uint64(p+1) << 48
		cfg.PrewarmJIT = opts.Prewarm
		cfg.Trace.Enabled = opts.Traced
		cfg.Invariants.Enabled = opts.Invariants
		if opts.SLO {
			cfg.Observe = cfg.Observe.EnableAll()
		}
		if opts.Drain {
			cfg.GrayDetection.Enabled = true
			cfg.Resilience = cfg.Resilience.EnableAll()
		}
		plat := core.New(cfg, pop.Registry)

		// This partition's share of the population: every P-th model.
		var models []*workload.FuncModel
		for i := p; i < len(pop.Models); i += opts.Parts {
			models = append(models, pop.Models[i])
		}
		sub := &workload.Population{Models: models, Registry: pop.Registry, TeamOf: pop.TeamOf}
		gen := workload.NewGenerator(group.Part(p), sub, cfg.Topo.CapacityShare(),
			plat.SubmitFunc(), rng.New(partSeed+1000))

		part := &Partition{GlobalRegions: groups[p], Platform: plat, Generator: gen}
		if opts.Chaos || opts.Drain {
			part.Injector = chaos.NewInjector(plat, rng.New(partSeed+9000))
		}
		r.Parts = append(r.Parts, part)
	}

	if opts.Parts > 1 && opts.CrossFrac > 0 {
		r.wireFabric()
	}
	return r
}

// wireFabric installs the Remote hook on every QueueLB: a CrossFrac
// slice of each region's submissions migrates to a worker-capacity-
// weighted remote region, travelling with the global pair latency.
func (r *Runner) wireFabric() {
	for p, part := range r.Parts {
		p := p
		srcPlat := part.Platform
		fabricSrc := rng.New(r.Opts.Seed ^ (uint64(p+1) * 0x9E3779B97F4A7C15) + 2000)
		// Candidate destinations: every region outside this partition.
		var targets []remoteTarget
		total := 0.0
		for _, reg := range r.Topo.Regions() {
			if r.partOfRegion[reg.ID] == p {
				continue
			}
			w := float64(reg.Workers)
			targets = append(targets, remoteTarget{
				part:   r.partOfRegion[reg.ID],
				local:  r.localOfRegion[reg.ID],
				global: reg.ID,
				weight: w,
			})
			total += w
		}
		if len(targets) == 0 {
			continue
		}
		for _, globalID := range part.GlobalRegions {
			srcGlobal := globalID
			lb := srcPlat.Region(r.localOfRegion[globalID]).QueueLB
			src := fabricSrc.Split()
			lb.RemoteFrac = r.Opts.CrossFrac
			lb.Remote = func(c *function.Call) bool {
				u := src.Float64() * total
				tgt := targets[len(targets)-1]
				for _, t := range targets {
					if u < t.weight {
						tgt = t
						break
					}
					u -= t.weight
				}
				dstPlat := r.Parts[tgt.part].Platform
				dstLocal := tgt.local
				srcPlat.MigratedOut.Inc()
				srcPlat.Obs.Emit(c, trace.KindMigrated, int64(tgt.part))
				// The observer record rides on the call, so the trace stitches
				// across the fabric by changing hands: the source lets go of
				// it on its own goroutine, the destination picks it up at
				// delivery time — one span tree per call, and the breakdown
				// identity closes across partitions.
				srcPlat.Tracer.Extract(c)
				srcPlat.Engine.Send(tgt.part, r.Topo.Latency(srcGlobal, tgt.global), func() {
					dstPlat.Tracer.Adopt(c)
					deliver(dstPlat, dstLocal, c)
				})
				return true
			}
		}
	}
}

// deliver lands a migrated call in the destination partition: it enters
// the ledger as migrated-in and persists into the first available shard,
// preferring the destination region and falling back across the
// partition in region order. With every shard down it is dropped there —
// the same client-visible outcome as a total DurableQ outage at home.
func deliver(p *core.Platform, dst cluster.RegionID, c *function.Call) {
	c.SourceRegion = dst
	p.MigratedIn.Inc()
	p.Obs.Emit(c, trace.KindMigrateIn, 0)
	regions := p.Regions()
	for off := 0; off < len(regions); off++ {
		reg := regions[(int(dst)+off)%len(regions)]
		for _, sh := range reg.Shards {
			if sh.Enqueue(c) {
				return
			}
		}
	}
	p.MigratedDropped.Inc()
	// Terminal for an adopted trace too: without this the stitched trace
	// would stay active forever in the destination recorder.
	p.Obs.Emit(c, trace.KindDropped, 0)
}

// partitionChaos is each partition's -pchaos fault schedule: one fault
// of every class, placed as fractions of the run so short CI runs still
// exercise all of them.
var partitionChaos = chaos.Scenario{Steps: []chaos.Step{
	{At: 0.2, Op: chaos.OpGray, N: 1, Rate: 8},
	{At: 0.6, Op: chaos.OpClearGray, N: 1},
	{At: 0.3, Op: chaos.OpRackCrash, Rate: 0.25, Then: 0.2},
	{At: 0.4, Op: chaos.OpShardOutage, Region: -1, Then: 0.1},
	{At: 0.5, Op: chaos.OpSubmitterCrash},
}}

// Run starts the generators, runs the group to the virtual deadline and
// returns the deterministic report.
func (r *Runner) Run() string {
	deadline := sim.Time(r.Opts.Minutes) * sim.Time(time.Minute)
	evacuation, _ := chaos.Lookup("evacuation")
	for _, part := range r.Parts {
		part.Generator.Start()
		// Chaos is armed before the drill, so its steps keep the lower
		// event sequence numbers.
		if r.Opts.Chaos {
			partitionChaos.Arm(part.Platform, part.Injector, deadline)
		}
		if r.Opts.Drain {
			evacuation.Arm(part.Platform, part.Injector, deadline)
		}
	}
	if r.Opts.Seq {
		r.Group.RunUntilSeq(deadline)
	} else {
		r.Group.RunUntil(deadline)
	}
	return r.Report()
}

// platCounts are the platform-level counters a report line reads beside
// its core.Counters reading of the data plane.
type platCounts struct {
	generated, completions, out, in, inDropped, drains, drainMigrated float64
}

func (pc *platCounts) add(part *Partition) {
	p := part.Platform
	pc.generated += part.Generator.Generated.Value()
	pc.completions += p.Completions.Value()
	pc.out += p.MigratedOut.Value()
	pc.in += p.MigratedIn.Value()
	pc.inDropped += p.MigratedDropped.Value()
	pc.drains += p.Drainer.Drains.Value()
	pc.drainMigrated += p.Drainer.Migrated.Value()
}

// flow writes the fields a partition line shares with the total line.
func flow(b *strings.Builder, c core.Counters, pc platCounts) {
	fmt.Fprintf(b, "gen=%.0f sub=%.0f acked=%.0f done=%.0f slo=%.0f drop=%.0f lost=%.0f out=%.0f in=%.0f indrop=%.0f fwd=%.0f",
		pc.generated, c.Submitted, c.SchedAcked, pc.completions, c.SLOMisses, c.RouteFailed,
		c.SubmitterLost+c.ShardLost, pc.out, pc.in, pc.inDropped, c.RemoteForwarded)
}

// Report renders the run's counters as deterministic text: virtual-time
// quantities and seeded-stream counters only, no wall-clock, no map
// iteration. Byte-identical across reruns, Seq mode and GOMAXPROCS.
// Every counter is integer-valued, so the total line's sums are exact.
func (r *Runner) Report() string {
	var b strings.Builder
	o := r.Opts
	fmt.Fprintf(&b, "psim parts=%d regions=%d workers=%d funcs=%d rps=%.0f minutes=%d seed=%d cross=%.2f chaos=%v drain=%v traced=%v invariants=%v slo=%v\n",
		o.Parts, o.Regions, o.TotalWorkers, o.Functions, o.RPS, o.Minutes, o.Seed, o.CrossFrac, o.Chaos, o.Drain, o.Traced, o.Invariants, o.SLO)
	var regions []*core.Region
	var tot platCounts
	var violations uint64
	for i, part := range r.Parts {
		p := part.Platform
		regions = append(regions, p.Regions()...)
		var pc platCounts
		pc.add(part)
		tot.add(part)
		fmt.Fprintf(&b, "part %d: regions=%d ", i, len(part.GlobalRegions))
		flow(&b, core.CountersOf(p.Regions()...), pc)
		fmt.Fprintf(&b, " ctrl=%d", p.Tracer.ControlCount())
		if o.Drain {
			fmt.Fprintf(&b, " drains=%.0f dmig=%.0f", pc.drains, pc.drainMigrated)
		}
		if o.Invariants {
			v := p.Inv.TotalViolations()
			violations += v
			fmt.Fprintf(&b, " viol=%d gap=%+d", v, p.Inv.Totals().Gap())
		}
		if o.Traced {
			sampled, _, dropped := p.Tracer.Stats()
			fmt.Fprintf(&b, " sampled=%d tdrop=%d", sampled, dropped)
		}
		fmt.Fprintln(&b)
	}
	b.WriteString("total: ")
	flow(&b, core.CountersOf(regions...), tot)
	fmt.Fprintf(&b, " events=%d", r.Group.Processed())
	if o.Drain {
		fmt.Fprintf(&b, " drains=%.0f dmig=%.0f", tot.drains, tot.drainMigrated)
	}
	if o.Invariants {
		fmt.Fprintf(&b, " viol=%d", violations)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// Violations collects every partition's invariant violations (final
// checks included) for test assertions.
func (r *Runner) Violations() []invariant.Violation {
	var out []invariant.Violation
	for _, part := range r.Parts {
		if part.Platform.Inv.Enabled() {
			out = append(out, part.Platform.Inv.Final()...)
		}
	}
	return out
}
