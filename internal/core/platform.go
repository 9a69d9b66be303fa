// Package core assembles the complete XFaaS platform from its components
// (paper Figure 6): per region a DurableQ shard pool, two submitter pools
// (normal and spiky), a QueueLB, a scheduler and a worker pool behind a
// WorkerLB; globally the central rate limiter, the congestion manager,
// the Global Traffic Conductor, the Utilization Controller, the Locality
// Optimizer loop, the cooperative-JIT code-push distributor, and the
// configuration management system tying the control plane to the critical
// path. Everything runs on one deterministic simulation engine.
package core

import (
	"fmt"
	"math"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/downstream"
	"xfaas/internal/drain"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/gtc"
	"xfaas/internal/invariant"
	"xfaas/internal/jit"
	"xfaas/internal/lifecycle"
	"xfaas/internal/locality"
	"xfaas/internal/queuelb"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rim"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
	"xfaas/internal/stats"
	"xfaas/internal/submitter"
	"xfaas/internal/trace"
	"xfaas/internal/utilization"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
	"xfaas/internal/workload"
)

// DownstreamSpec declares a downstream service the platform's functions
// may call.
type DownstreamSpec struct {
	Name        string
	CapacityRPS float64
}

// Config assembles a platform.
type Config struct {
	Seed uint64
	// Engine, when set, runs the platform on an existing engine — one
	// partition of a sim.Group in a parallel run — instead of a fresh
	// standalone engine. Every component schedules only on this engine;
	// cross-partition interaction must flow through the fabric hooks
	// (queuelb.LB.Remote), never shared memory.
	Engine *sim.Engine
	// Topo, when set, overrides synthetic topology generation (a
	// partitioned run carves one global topology into per-partition
	// subsets so latencies stay consistent with the fabric lookaheads).
	Topo *cluster.Topology
	// IDBase offsets every call ID this platform assigns. Partitioned
	// runs give each partition a disjoint high-bits namespace so migrated
	// calls can never collide with locally assigned IDs.
	IDBase    uint64
	Cluster   cluster.Config
	Scheduler scheduler.Params
	Worker    worker.Params
	Submitter submitter.Params
	AIMD      congestion.AIMDParams
	Util      utilization.Params

	// SchedulersPerRegion is the number of stateless scheduler replicas
	// per region (the paper runs hundreds; they coordinate only through
	// DurableQ leases). Values below 1 mean 1.
	SchedulersPerRegion int
	// LeaseTimeout for DurableQ shards.
	LeaseTimeout time.Duration
	// QueueLocalFrac is the QueueLB's local-region routing share.
	QueueLocalFrac float64
	// LocalityGroups per region (0 disables locality groups — the §5.2
	// ablation baseline).
	LocalityGroups int
	// EnableGTC turns on cross-region dispatch.
	EnableGTC bool
	// CodePushInterval is the cooperative-JIT push cadence (paper: every
	// three hours); 0 disables pushes.
	CodePushInterval time.Duration
	// SpikyClients are routed to the spiky submitter pool.
	SpikyClients []string
	// Downstreams to instantiate.
	Downstreams []DownstreamSpec
	// EnableRIM runs the global Resource Isolation and Management advice
	// loop whenever downstreams exist. Disable to isolate the reactive
	// AIMD loop (the §5.5 incident experiments do).
	EnableRIM bool
	// PrewarmJIT starts workers with all registered functions already
	// JIT-compiled — the steady state of a long-running fleet. Disable
	// for cold-ramp experiments (Figure 12).
	PrewarmJIT bool
	// Durability is the crash-recovery model: DurableQ journaling (off by
	// default) and its flush lag.
	Durability config.Durability
	// Resilience switches the overload-resilience mechanisms together:
	// retry budgets, queue-delay shedding, deadline expiry sweeping, and
	// hedged dispatch (off by default).
	Resilience config.Resilience
	// GrayDetection is the completion-driven latency-outlier detector
	// (detection v2): per-worker exec-time inflation scoring with a
	// probation → ejected → reinstated state machine (off by default).
	GrayDetection config.GrayDetection
	// Trace configures per-call tracing (disabled by default: the
	// recorder still exists and collects control-plane events, but no
	// call is sampled).
	Trace trace.Params
	// Invariants configures continuous invariant checking (disabled by
	// default: the checker stays nil). With tracing, invariants and the
	// SLO engine all off, every lifecycle emit on the hot path is one
	// inlined check on the spine, preserving the zero-alloc submit path.
	Invariants invariant.Params
	// Observe switches utilization accounting and the SLO engine together:
	// per-worker core-second meters with exact busy/idle closure, windowed
	// utilization timelines, per-tenant cost attribution, and
	// multi-window burn-rate alerting (off by default).
	Observe config.Observe
}

const (
	// localityInterval is the Locality Optimizer's refresh period.
	localityInterval time.Duration = 10 * time.Minute
	// gtcInterval is the traffic-matrix recompute period.
	gtcInterval time.Duration = time.Minute
	// metricsInterval is the utilization/memory sampling period.
	metricsInterval time.Duration = 30 * time.Second
)

// DefaultConfig returns a paper-shaped platform at simulation scale: 12
// regions with skewed capacity, workers scaled down so that the default
// workload (≈100 received RPS, ≈640 M instructions per call) lands near
// the paper's 66% daily average utilization when time-shifting works.
func DefaultConfig() Config {
	cl := cluster.DefaultConfig()
	cl.TotalWorkers = 48
	wp := worker.DefaultParams()
	wp.CPUMIPS = 1500
	wp.CoreMIPS = 150
	wp.MaxConcurrency = 256
	return Config{
		Seed:                1,
		Cluster:             cl,
		Scheduler:           scheduler.DefaultParams(),
		Worker:              wp,
		Submitter:           submitter.DefaultParams(),
		AIMD:                congestion.DefaultAIMDParams(),
		Util:                utilization.DefaultParams(),
		SchedulersPerRegion: 1,
		LeaseTimeout:        15 * time.Minute,
		QueueLocalFrac:      0.85,
		LocalityGroups:      4,
		EnableGTC:           true,
		CodePushInterval:    3 * time.Hour,
		SpikyClients:        []string{"team-spiky"},
		EnableRIM:           true,
		PrewarmJIT:          true,
		Durability:          config.Durability{FlushLag: 200 * time.Millisecond},
		GrayDetection:       config.GrayDetection{Probation: 30 * time.Second},
		Trace:               trace.DefaultParams(),
		Invariants:          invariant.DefaultParams(),
		Observe:             config.DefaultObserve(),
	}
}

// ProvisionWorkers sizes a worker pool so that demandMIPS lands at
// cpuTarget CPU utilization and concurrentMemMB fits within half of each
// worker's usable memory, with a floor of minWorkers. Both experiments
// and tests use it to provision paper-shaped fleets from a workload's
// analytic demand.
func ProvisionWorkers(wp worker.Params, demandMIPS, concurrentMemMB, cpuTarget float64, minWorkers int) int {
	byCPU := int(math.Ceil(demandMIPS / (cpuTarget * wp.CPUMIPS)))
	usable := wp.MemoryMB - worker.RuntimeBaseMB
	byMem := int(math.Ceil(concurrentMemMB / (0.5 * usable)))
	return max(byCPU, byMem, minWorkers)
}

// Region bundles one region's data-plane components.
type Region struct {
	ID      cluster.RegionID
	Shards  []*durableq.Shard
	Workers []*worker.Worker
	LB      *workerlb.LB
	QueueLB *queuelb.LB
	Normal  *submitter.Submitter
	Spiky   *submitter.Submitter
	// Sched is the first scheduler replica (the common single-replica
	// case); Scheds lists all replicas.
	Sched  *scheduler.Scheduler
	Scheds []*scheduler.Scheduler
	// UtilSeries samples the region's mean worker utilization
	// (Figure 7).
	UtilSeries *stats.TimeSeries
	// MemSeries samples the region's mean worker memory (Figure 10).
	MemSeries *stats.TimeSeries
}

// Platform is a fully wired XFaaS instance on a simulation engine.
type Platform struct {
	Engine      *sim.Engine
	Topo        *cluster.Topology
	Store       *config.Store
	Central     *ratelimit.Central
	Cong        *congestion.Manager
	Downstreams *downstream.Registry
	Registry    *function.Registry
	GTC         *gtc.Conductor
	Util        *utilization.Controller
	Distributor *jit.Distributor
	// RIM is the global coordination advisor (nil without downstreams).
	RIM *rim.RIM
	// Tracer is the per-call trace recorder and control-plane event log.
	// Always non-nil: control events record even with call tracing off.
	Tracer *trace.Recorder
	// Inv is the invariant checker; nil unless cfg.Invariants.Enabled
	// (nil is the disabled checker — all hooks no-op on it).
	Inv *invariant.Checker
	// Metrics is the platform-level labeled metric registry backing the
	// Prometheus exposition.
	Metrics *stats.Registry
	// Acct is the core-second accounting hub; nil unless cfg.Observe is
	// on (all hooks no-op on nil).
	Acct *slo.Accountant
	// SLO is the burn-rate SLO engine; nil unless cfg.Observe is on.
	SLO *slo.Engine
	// Obs is the lifecycle spine every component emits on; it fans call
	// transitions out to Tracer, Inv and SLO.
	Obs *lifecycle.Spine
	// Drainer is the regional drain controller. Always constructed: its
	// construction is free of RNG and scheduling.
	Drainer *drain.Controller

	cfg     Config
	regions []*Region
	idSeq   uint64
	spiky   map[string]bool

	// partitioned marks regions currently severed from the cross-region
	// fabric (chaos injection): the GTC cannot see them and schedulers
	// cannot pull across the cut.
	partitioned []bool
	// breakers holds each region's circuit-breaker state.
	breakers []breaker
	// BreakerOpens counts open transitions across all region breakers.
	BreakerOpens stats.Counter
	// lastShed/lastMinCrit hold the previous degradation outputs so the
	// control-event log records transitions, not every degrade tick.
	lastShed    float64
	lastMinCrit function.Criticality

	// codeVersion counts code rollouts started.
	codeVersion int
	// localityWarm flips once locality groups have been partitioned from
	// measured (not cold-start) rates; afterwards only worker counts
	// rebalance, keeping the function→group mapping stable.
	localityWarm bool
	// avgCostM is the EWMA of observed per-call cost, used to convert
	// queue backlogs into MIPS demand for the GTC.
	avgCostM float64

	// Executed aggregates successful completions per minute across all
	// regions (Figure 2's bottom curve).
	Executed *stats.TimeSeries
	// ExecutedCPU aggregates executed CPU (million instructions) per
	// minute, split by quota type (Figure 11).
	ReservedCPU      *stats.TimeSeries
	OpportunisticCPU *stats.TimeSeries
	// Completions and Failures count terminal call outcomes.
	Completions stats.Counter
	// E2ELatency observes every completion's submit→done latency in
	// seconds; xfaas-inspect checks its traced breakdown against this
	// independently collected distribution.
	E2ELatency *stats.Histogram
	// completionCtr holds prebuilt per-(region, quota, criticality)
	// counter handles so onExecuted never does a label lookup on the hot
	// path; they are children of Metrics' completions_total family.
	completionCtr [][][]*stats.Counter
	// MigratedOut/MigratedIn/MigratedDropped count cross-partition fabric
	// handoffs in a partitioned run (see internal/psim): calls this
	// partition forwarded elsewhere, calls that arrived here, and arrived
	// calls that found no live shard anywhere in the partition.
	MigratedOut     stats.Counter
	MigratedIn      stats.Counter
	MigratedDropped stats.Counter
	// onExecutedSubs are the completion listeners (trigger chaining,
	// workflows, experiment instrumentation); see AddOnExecuted.
	onExecutedSubs []func(*function.Call)
}

// AddOnExecuted registers a listener invoked, in registration order, for
// every successful completion.
func (p *Platform) AddOnExecuted(fn func(*function.Call)) {
	p.onExecutedSubs = append(p.onExecutedSubs, fn)
}

// New builds and starts a platform for the given function registry.
func New(cfg Config, registry *function.Registry) *Platform {
	src := rng.New(cfg.Seed)
	engine := cfg.Engine
	if engine == nil {
		engine = sim.NewEngine()
	}
	topo := cfg.Topo
	if topo == nil {
		// The Split happens unconditionally on the legacy path so adding
		// the Topo override leaves every existing seed-keyed stream — and
		// therefore all golden outputs — untouched.
		topo = cluster.Generate(cfg.Cluster, src.Split())
	}
	p := &Platform{
		Engine:           engine,
		Topo:             topo,
		Store:            config.NewStore(engine),
		Central:          ratelimit.NewCentral(engine),
		Downstreams:      downstream.NewRegistry(),
		Registry:         registry,
		cfg:              cfg,
		idSeq:            cfg.IDBase,
		spiky:            make(map[string]bool),
		avgCostM:         100,
		lastShed:         1,
		lastMinCrit:      function.CritLow,
		Executed:         stats.NewTimeSeries(time.Minute, stats.ModeSum),
		ReservedCPU:      stats.NewTimeSeries(time.Minute, stats.ModeSum),
		OpportunisticCPU: stats.NewTimeSeries(time.Minute, stats.ModeSum),
		Metrics:          stats.NewRegistry(),
		Tracer:           trace.NewRecorder(engine, cfg.Seed, cfg.Trace),
		Inv:              invariant.NewChecker(engine, cfg.Invariants, topo.NumRegions()),
	}
	defended := cfg.Resilience.Enabled
	if p.Inv != nil && defended {
		// With sweeping on, an expired call reaching a worker is a breach
		// of the sweeps' promise, not an SLO miss.
		p.Inv.ExpiryDispatchCheck = true
	}
	p.E2ELatency = p.Metrics.Histogram("e2e_latency_seconds")
	// Prebuild the per-(region, quota, criticality) completion counter
	// handles so the completion path never joins label strings.
	compVec := p.Metrics.CounterVec("completions_total", "region", "quota", "crit")
	nRegions := p.Topo.NumRegions()
	p.completionCtr = make([][][]*stats.Counter, nRegions)
	for r := 0; r < nRegions; r++ {
		p.completionCtr[r] = make([][]*stats.Counter, 2)
		for _, q := range []function.QuotaType{function.QuotaReserved, function.QuotaOpportunistic} {
			crits := make([]*stats.Counter, 3)
			for _, cr := range []function.Criticality{function.CritLow, function.CritNormal, function.CritHigh} {
				crits[cr] = compVec.With(fmt.Sprintf("r%d", r), q.String(), cr.String())
			}
			p.completionCtr[r][q] = crits
		}
	}
	if cfg.Observe.Enabled {
		regionNames := make([]string, nRegions)
		for r := 0; r < nRegions; r++ {
			regionNames[r] = fmt.Sprintf("r%d", r)
		}
		p.Acct = slo.NewAccountant(p.Metrics, regionNames, effectiveCoreMIPS(cfg.Worker), slo.UtilWindow, engine.Now())
		p.SLO = slo.NewEngine(p.Metrics, cfg.Observe, p.Tracer.Control)
	}
	p.Obs = lifecycle.New(engine, p.Tracer, p.Inv, p.SLO)
	p.Cong = congestion.NewManager(engine, cfg.AIMD, congestion.SlowStartParams{})
	p.Cong.Obs = p.Obs
	for _, c := range cfg.SpikyClients {
		p.spiky[c] = true
	}
	if len(cfg.Downstreams) > 0 {
		var sources []rim.Source
		for _, d := range cfg.Downstreams {
			svc := downstream.NewService(engine, src.Split(), d.Name, d.CapacityRPS)
			p.Downstreams.Add(svc)
			sources = append(sources, svc)
		}
		if cfg.EnableRIM {
			p.RIM = rim.New(engine, p.Store, sources...)
			p.Cong.Advice = p.RIM.MultiplierFor
		}
	}

	// Shards first: schedulers need the global view. Their backoff-jitter
	// sources derive from an independent root (not src) so adding draws
	// here leaves every other component's stream — and therefore all
	// seed-keyed results — untouched.
	shardSrc := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	allShards := make([][]*durableq.Shard, p.Topo.NumRegions())
	for i, r := range p.Topo.Regions() {
		for k := 0; k < r.DurableQShards; k++ {
			sh := durableq.NewShard(durableq.ShardID{Region: r.ID, Index: k}, engine, shardSrc.Split())
			sh.LeaseTimeout = cfg.LeaseTimeout
			sh.BudgetEnabled = defended
			sh.SweepExpired = defended
			if cfg.Durability.JournalEnabled {
				sh.EnableJournal(cfg.Durability.FlushLag)
			}
			sh.Obs = p.Obs
			allShards[i] = append(allShards[i], sh)
		}
	}
	p.Store.Set(queuelb.PolicyKey, queuelb.LocalFirstPolicy(p.Topo, cfg.QueueLocalFrac))

	for i, r := range p.Topo.Regions() {
		// Region series are children of labeled families so the /metrics
		// exposition enumerates them; the Region fields keep pointing at
		// the same *TimeSeries objects for existing readers.
		regLabel := fmt.Sprintf("r%d", r.ID)
		reg := &Region{
			ID:         r.ID,
			Shards:     allShards[i],
			UtilSeries: p.Metrics.SeriesVec("region_utilization", time.Minute, stats.ModeMean, "region").With(regLabel),
			MemSeries:  p.Metrics.SeriesVec("region_memory_mb", time.Minute, stats.ModeMean, "region").With(regLabel),
		}
		for w := 0; w < r.Workers; w++ {
			wk := worker.New(worker.ID{Region: r.ID, Index: w}, engine, cfg.Worker, src.Split(), p.Downstreams)
			if cfg.PrewarmJIT {
				wk.Runtime.Prewarm(registry.Names())
			}
			wk.DeadlineRetryCut = defended
			wk.Obs = p.Obs
			if p.Acct != nil {
				wk.Acct = p.Acct.NewMeter(int(r.ID), cfg.Worker.CPUMIPS, effectiveCoreMIPS(cfg.Worker), engine.Now())
			}
			reg.Workers = append(reg.Workers, wk)
		}
		reg.LB = workerlb.New(src.Split(), reg.Workers)
		reg.LB.Obs = p.Obs
		reg.LB.StartHealthChecks(engine)
		if cfg.GrayDetection.Enabled {
			reg.LB.StartOutlierDetection(engine, cfg.GrayDetection.Probation)
		}
		reg.QueueLB = queuelb.New(r.ID, src.Split(), allShards, p.Store)
		reg.QueueLB.Obs = p.Obs
		reg.QueueLB.Drained = func(r int) bool { return p.Drainer.Draining(r) }
		if i == 0 {
			// One flush grid for every submitter, armed where the first
			// submitter is built. See flushSubmitters.
			engine.Every(submitter.FlushInterval, p.flushSubmitters)
		}
		reg.Normal = submitter.New(engine, r.ID, submitter.PoolNormal, cfg.Submitter, reg.QueueLB, nil, src.Split(), &p.idSeq)
		reg.Spiky = submitter.New(engine, r.ID, submitter.PoolSpiky, cfg.Submitter, reg.QueueLB, nil, src.Split(), &p.idSeq)
		for _, sub := range []*submitter.Submitter{reg.Normal, reg.Spiky} {
			sub.Obs = p.Obs
		}
		nSched := cfg.SchedulersPerRegion
		nSched = max(nSched, 1)
		from := r.ID
		var hb *scheduler.HedgeBudget
		if defended {
			// One bucket per region, shared by its replicas, so the
			// amplification bound holds region-wide regardless of how
			// many schedulers dispatch hedges.
			hb = scheduler.NewHedgeBudget(scheduler.HedgeBudgetFrac, scheduler.HedgeBudgetBurst)
		}
		for k := 0; k < nSched; k++ {
			sc := scheduler.NewHedged(engine, src.Split(), r.ID, cfg.Scheduler, allShards, reg.LB, p.Central, p.Cong, p.Store, hb)
			sc.ShedEnabled = defended
			sc.SweepExpired = defended
			sc.Obs = p.Obs
			sc.OnExecuted = p.onExecuted
			sc.Reachable = func(dst cluster.RegionID) bool { return p.Reachable(from, dst) }
			sc.AllowPull = func() bool { return !p.breakers[from].isOpen() }
			reg.Scheds = append(reg.Scheds, sc)
		}
		reg.Sched = reg.Scheds[0]
		p.regions = append(p.regions, reg)
	}

	// Control plane.
	if cfg.EnableGTC {
		p.GTC = gtc.NewConductor(engine, p.Topo, p.Store, gtcInterval, p.snapshot)
	}
	p.Util = utilization.New(engine, cfg.Util, p.Store, p.MeanUtilization)
	p.Store.Subscribe(utilization.ScaleKey, func(v config.Value, _ uint64) {
		p.Central.SetScale(v.(float64))
	})
	if cfg.LocalityGroups > 0 {
		p.refreshLocality()
		engine.Every(localityInterval, p.refreshLocality)
	}
	p.Distributor = jit.NewDistributor(engine)
	if cfg.CodePushInterval > 0 {
		engine.Every(cfg.CodePushInterval, p.pushCode)
	}
	engine.Every(metricsInterval, p.sampleMetrics)
	if p.Acct != nil {
		engine.Every(slo.UtilWindow, func() { p.Acct.Tick(engine.Now()) })
	}
	if p.SLO != nil {
		engine.Every(slo.EvalInterval, func() { p.SLO.Eval(engine.Now()) })
	}
	p.partitioned = make([]bool, p.Topo.NumRegions())
	p.breakers = make([]breaker, p.Topo.NumRegions())
	views := make([]drain.RegionView, len(p.regions))
	for i, reg := range p.regions {
		views[i] = drain.RegionView{Shards: reg.Shards, Scheds: reg.Scheds, Workers: reg.Workers}
	}
	p.Drainer = drain.NewController(engine, views)
	p.Drainer.Obs = p.Obs
	engine.Every(DegradeInterval, p.degradeTick)
	p.registerInvariantProbes()
	return p
}

// flushSubmitters is the submitter tier's flush grid: one tick per
// FlushInterval persists every submitter's partial batch, in construction
// order (region 0 normal, region 0 spiky, region 1 normal, ...). It fires
// at the instant and in the order one ticker per submitter would: those
// ticks would hold consecutive ordering keys at each grid instant, the
// grid is armed at the key the first of them would have, and a flush
// schedules nothing on the engine (DESIGN §7).
func (p *Platform) flushSubmitters() {
	for _, reg := range p.regions {
		reg.Normal.Flush()
		reg.Spiky.Flush()
	}
}

// Regions exposes the per-region components.
func (p *Platform) Regions() []*Region { return p.regions }

// Region returns one region's components.
func (p *Platform) Region(id cluster.RegionID) *Region { return p.regions[id] }

// Submit enters one call into the platform through the submitter tier of
// the given region, selecting the spiky pool for negotiated spiky
// clients.
func (p *Platform) Submit(region cluster.RegionID, client string, c *function.Call) error {
	if int(region) >= len(p.regions) {
		return fmt.Errorf("core: unknown region %d", region)
	}
	reg := p.regions[region]
	if p.spiky[client] {
		return reg.Spiky.Submit(client, c)
	}
	return reg.Normal.Submit(client, c)
}

// SubmitFunc adapts Submit for the workload generator.
func (p *Platform) SubmitFunc() workload.SubmitFunc {
	return func(region cluster.RegionID, client string, c *function.Call) error {
		return p.Submit(region, client, c)
	}
}

// effectiveCoreMIPS mirrors worker.callShape's clamp: a single thread
// never runs faster than the whole server.
func effectiveCoreMIPS(wp worker.Params) float64 {
	core := wp.CoreMIPS
	if core <= 0 || core > wp.CPUMIPS {
		core = wp.CPUMIPS
	}
	return core
}

// MeanUtilization is the fleet-wide mean worker CPU utilization.
func (p *Platform) MeanUtilization() float64 {
	s, n := 0.0, 0
	for _, reg := range p.regions {
		for _, w := range reg.Workers {
			s += w.CPUUtilization()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// PendingCalls sums stored, unleased calls across all shards.
func (p *Platform) PendingCalls() int { return CountersOf(p.regions...).Pending }

func (p *Platform) onExecuted(c *function.Call) {
	now := p.Engine.Now()
	p.Executed.Record(now, 1)
	p.Completions.Inc()
	p.E2ELatency.Observe((now - c.SubmitTime).Seconds())
	if r := int(c.SourceRegion); r >= 0 && r < len(p.completionCtr) {
		p.completionCtr[r][c.Spec.Quota][c.Spec.Criticality].Inc()
	}
	if c.Spec.Quota == function.QuotaOpportunistic {
		p.OpportunisticCPU.Record(now, c.CPUWorkM)
	} else {
		p.ReservedCPU.Record(now, c.CPUWorkM)
	}
	const alpha = 0.02
	p.avgCostM = (1-alpha)*p.avgCostM + alpha*c.CPUWorkM
	p.Acct.OnExecuted(c)
	p.SLO.Observe(c, now)
	for _, fn := range p.onExecutedSubs {
		fn(c)
	}
}

// snapshot feeds the GTC: demand is each region's ready backlog converted
// to MIPS via the observed average call cost; supply is the region's
// worker MIPS per the heartbeat-detected health view (never Worker.Failed
// directly — the conductor learns about failures the same way the
// schedulers do). Partitioned regions are invisible: zero demand and zero
// supply, so no traffic is routed to or from them until the cut heals.
// Drained regions are zeroed like partitioned ones, so no cross-region
// traffic is steered into the drain.
func (p *Platform) snapshot() gtc.Snapshot {
	n := p.Topo.NumRegions()
	snap := gtc.Snapshot{Demand: make([]float64, n), Supply: make([]float64, n)}
	for i, reg := range p.regions {
		if p.partitioned[i] || p.Drainer.Draining(i) {
			continue
		}
		ready := 0
		for _, sh := range reg.Shards {
			ready += sh.PendingReady()
		}
		snap.Demand[i] = float64(ready) * p.avgCostM
		snap.Supply[i] = float64(reg.LB.DetectedHealthy()) * p.cfg.Worker.CPUMIPS
	}
	return snap
}

// refreshLocality recomputes locality assignments per region from the
// registry's declared profiles and current measured rates. Pools too
// small to split meaningfully (fewer than two workers per group) stay
// unpartitioned — a one-worker locality group would turn a hot function
// into a permanent hotspot.
func (p *Platform) refreshLocality() {
	profiles := p.funcProfiles()
	for _, reg := range p.regions {
		if len(reg.Workers) < 2*p.cfg.LocalityGroups {
			reg.LB.SetAssignment(nil)
			continue
		}
		if a := reg.LB.Assignment(); a != nil && p.localityWarm {
			// Keep the function→group mapping stable (workers keep a
			// stable subset of functions, §4.5.2); only move workers
			// between groups to track measured load.
			a.Rebalance(meanLoads(reg.LB.GroupLoads()), len(reg.Workers))
			reg.LB.SetAssignment(a)
			continue
		}
		a := locality.Partition(profiles, p.cfg.LocalityGroups, len(reg.Workers))
		reg.LB.SetAssignment(a)
	}
	if p.Engine.Now() > 0 {
		// The first refresh after traffic started partitioned from
		// measured rates; later refreshes only rebalance.
		p.localityWarm = true
	}
}

// meanLoads guards against all-zero measured loads (idle region) so
// Rebalance keeps an even split rather than panicking on zeros.
func meanLoads(loads []float64) []float64 {
	total := 0.0
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		out := make([]float64, len(loads))
		for i := range out {
			out[i] = 1
		}
		return out
	}
	return loads
}

func (p *Platform) funcProfiles() []locality.FuncProfile {
	core := p.cfg.Worker.CoreMIPS
	if core <= 0 {
		core = p.cfg.Worker.CPUMIPS
	}
	var out []locality.FuncProfile
	for _, spec := range p.Registry.All() {
		r := spec.Resources
		// The partitioner balances what actually fills worker memory:
		// the function's expected concurrent working set (Little's law
		// over its measured rate) plus its resident code footprint.
		eDur := function.LogNormalMean(r.TimeMu, r.TimeSigma) +
			function.LogNormalMean(r.CPUMu, r.CPUSigma)/core
		eMem := function.LogNormalMean(r.MemMu, r.MemSigma)
		rate := p.Central.CurrentRPS(spec) + 0.02
		concurrentMB := rate*eDur*eMem + r.CodeMB + r.JITCodeMB
		load := p.Central.CurrentRPS(spec)*p.Central.AvgCost(spec) + 1
		out = append(out, locality.FuncProfile{
			Name:      spec.Name,
			MemMB:     concurrentMB,
			Load:      load,
			Ephemeral: spec.Ephemeral,
		})
	}
	return out
}

// pushCode performs one cooperative-JIT code rollout: all functions'
// latest code is bundled and staged out per locality group of workers.
func (p *Platform) pushCode() {
	p.codeVersion++
	hot := p.hotFunctions()
	var groups [][]jit.Target
	for _, reg := range p.regions {
		a := reg.LB.Assignment()
		if a == nil {
			g := make([]jit.Target, len(reg.Workers))
			for i, w := range reg.Workers {
				g[i] = w
			}
			groups = append(groups, g)
			continue
		}
		idx := 0
		for _, n := range a.WorkerCounts {
			if idx+n > len(reg.Workers) {
				n = len(reg.Workers) - idx
			}
			g := make([]jit.Target, 0, n)
			for _, w := range reg.Workers[idx : idx+n] {
				g = append(g, w)
			}
			groups = append(groups, g)
			idx += n
		}
	}
	p.Distributor.Push(groups, hot)
}

// hotFunctions returns the names of functions with measurable traffic
// (seeder profiling targets); all names if none measured yet.
func (p *Platform) hotFunctions() []string {
	var hot []string
	for _, spec := range p.Registry.All() {
		if p.Central.CurrentRPS(spec) > 0.1 {
			hot = append(hot, spec.Name)
		}
	}
	if len(hot) == 0 {
		hot = p.Registry.Names()
	}
	return hot
}

func (p *Platform) sampleMetrics() {
	now := p.Engine.Now()
	for _, reg := range p.regions {
		var util, mem float64
		for _, w := range reg.Workers {
			util += w.CPUUtilization()
			mem += w.MemUsedMB()
		}
		n := float64(len(reg.Workers))
		reg.UtilSeries.Record(now, util/n)
		reg.MemSeries.Record(now, mem/n)
	}
}

// SLOMisses sums deadline misses across all scheduler replicas.
func (p *Platform) SLOMisses() float64 { return CountersOf(p.regions...).SLOMisses }

// Acked sums successful completions acknowledged to DurableQs across all
// scheduler replicas.
func (p *Platform) Acked() float64 { return CountersOf(p.regions...).SchedAcked }
