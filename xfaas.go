// Package xfaas is a faithful, simulation-scale reproduction of XFaaS,
// Meta's hyperscale serverless platform (Sahraei et al., SOSP 2023). It
// reimplements the paper's full control plane — submitters, QueueLBs,
// DurableQs, schedulers with criticality/deadline ordering, workers with
// cooperative JIT and locality groups, the Global Traffic Conductor, the
// Utilization Controller's opportunistic scaling, and TCP-like adaptive
// concurrency control for downstream protection — on a deterministic
// discrete-event engine, together with workload generators fitted to the
// paper's published distributions and an experiment harness that
// regenerates every table and figure of the evaluation.
//
// # Quick start
//
//	cfg := xfaas.DefaultConfig()
//	pop := xfaas.NewPopulation(xfaas.DefaultPopulationConfig(), xfaas.NewRand(1))
//	p := xfaas.New(cfg, pop.Registry)
//	gen := xfaas.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), xfaas.NewRand(2))
//	gen.Start()
//	p.Engine.RunFor(24 * time.Hour) // virtual time
//	fmt.Println(p.MeanUtilization())
//
// Everything runs in virtual time: a simulated day of a mid-size cluster
// takes seconds of wall clock and is exactly reproducible from its seed.
package xfaas

import (
	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/downstream"
	"xfaas/internal/experiment"
	"xfaas/internal/function"
	"xfaas/internal/isolation"
	"xfaas/internal/psim"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/workload"
)

// Platform is a fully wired XFaaS instance; see core.Platform for the
// component graph.
type Platform = core.Platform

// Config assembles a Platform.
type Config = core.Config

// DownstreamSpec declares a downstream service functions may call.
type DownstreamSpec = core.DownstreamSpec

// Region bundles one region's data-plane components.
type Region = core.Region

// FunctionSpec is a function definition with the attributes the paper's
// developers set: runtime, criticality, quota, deadline, concurrency
// limit, retry policy, isolation zone.
type FunctionSpec = function.Spec

// Call is one function invocation flowing through the platform.
type Call = function.Call

// Registry holds registered functions.
type Registry = function.Registry

// ResourceModel declares a function's per-call resource distributions.
type ResourceModel = function.ResourceModel

// RetryPolicy bounds redelivery of failed calls.
type RetryPolicy = function.RetryPolicy

// Criticality, quota and trigger enumerations.
const (
	CritLow    = function.CritLow
	CritNormal = function.CritNormal
	CritHigh   = function.CritHigh

	QuotaReserved      = function.QuotaReserved
	QuotaOpportunistic = function.QuotaOpportunistic

	TriggerQueue = function.TriggerQueue
	TriggerEvent = function.TriggerEvent
	TriggerTimer = function.TriggerTimer
)

// Zone is a Bell–LaPadula isolation zone.
type Zone = isolation.Zone

// NewZone builds an isolation zone from a level and compartments.
var NewZone = isolation.NewZone

// Isolation levels.
const (
	Public       = isolation.Public
	Internal     = isolation.Internal
	Confidential = isolation.Confidential
	Restricted   = isolation.Restricted
)

// Rand is the deterministic random source used across the simulator.
type Rand = rng.Source

// NewRand seeds a deterministic random source.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Engine is the discrete-event simulation engine driving a Platform.
type Engine = sim.Engine

// EngineGroup couples N engine partitions into one conservatively
// synchronized parallel simulation; see sim.Group.
type EngineGroup = sim.Group

// NewEngineGroup builds an engine group with a per-edge lookahead.
var NewEngineGroup = sim.NewGroup

// ParallelOptions configure a partitioned multi-platform simulation.
type ParallelOptions = psim.Options

// ParallelRunner owns a partitioned simulation; Run returns its
// deterministic report.
type ParallelRunner = psim.Runner

// DefaultParallelOptions is a small partitioned run suitable for CI.
func DefaultParallelOptions() ParallelOptions { return psim.DefaultOptions() }

// NewParallel builds a partitioned platform simulation.
func NewParallel(opts ParallelOptions) *ParallelRunner { return psim.New(opts) }

// RegionID identifies a datacenter region.
type RegionID = cluster.RegionID

// ClusterConfig controls synthetic topology generation.
type ClusterConfig = cluster.Config

// PopulationConfig controls synthetic workload generation.
type PopulationConfig = workload.PopulationConfig

// Population is a generated function set with arrival models.
type Population = workload.Population

// Generator drives a population's arrivals into a platform.
type Generator = workload.Generator

// DownstreamService is a capacity-limited downstream dependency.
type DownstreamService = downstream.Service

// DefaultConfig returns a paper-shaped platform at simulation scale.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPopulationConfig returns the standard synthetic workload fitted
// to the paper's Tables 1-3 and Figures 2/4.
func DefaultPopulationConfig() PopulationConfig { return workload.DefaultPopulationConfig() }

// New builds and starts a platform for the given function registry.
func New(cfg Config, registry *Registry) *Platform { return core.New(cfg, registry) }

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry { return function.NewRegistry() }

// NewPopulation synthesizes a function population.
func NewPopulation(cfg PopulationConfig, src *Rand) *Population {
	return workload.NewPopulation(cfg, src)
}

// NewGenerator returns an arrival generator feeding submit.
func NewGenerator(engine *Engine, pop *Population, regionWeights []float64, submit workload.SubmitFunc, src *Rand) *Generator {
	return workload.NewGenerator(engine, pop, regionWeights, submit, src)
}

// ProvisionWorkers sizes a worker pool for a CPU and memory demand; see
// core.ProvisionWorkers.
var ProvisionWorkers = core.ProvisionWorkers

// Experiment re-exports: the harness that regenerates the paper's tables
// and figures.
type (
	// Experiment is one regenerable paper artifact (table or figure).
	Experiment = experiment.Experiment
	// ExperimentResult is an experiment's paper-vs-measured output.
	ExperimentResult = experiment.Result
	// ExperimentScale selects quick (tests/benches) or full (paper-scale)
	// fidelity.
	ExperimentScale = experiment.Scale
)

// Experiments returns every experiment, sorted by id.
func Experiments() []*Experiment { return experiment.All() }

// ExperimentByID looks up one experiment (e.g. "fig2", "table3").
func ExperimentByID(id string) (*Experiment, bool) { return experiment.Get(id) }

// QuickScale is the fast experiment scale used by tests and benchmarks.
func QuickScale() ExperimentScale { return experiment.QuickScale() }

// FullScale is the paper-scale experiment configuration.
func FullScale() ExperimentScale { return experiment.FullScale() }
