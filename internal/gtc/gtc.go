// Package gtc implements the Global Traffic Conductor (paper §4.4): it
// maintains a near-real-time view of demand (pending function calls) and
// supply (worker-pool capacity) across all regions and periodically
// computes a traffic matrix T, where T[i][j] is the fraction of function
// calls the schedulers in region i should pull from region j. The
// computation starts from the identity (pull local only) and shifts
// traffic out of overloaded regions to nearby regions until no region is
// overloaded or all regions are equally loaded. The matrix is distributed
// to schedulers through the configuration management system.
package gtc

import (
	"sort"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// MatrixKey is the config-store key the traffic matrix is published
// under.
const MatrixKey = "gtc/traffic-matrix"

// Matrix is row-stochastic: Matrix[i][j] is the fraction of region i's
// polling effort directed at region j's DurableQs.
type Matrix [][]float64

// Identity returns the pull-local-only matrix over n regions.
func Identity(n int) Matrix {
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

// Snapshot is the GTC's per-region input.
type Snapshot struct {
	// Demand is each region's pending work, in the same unit as Supply
	// (we use MIPS of queued ready calls).
	Demand []float64
	// Supply is each region's worker-pool capacity (MIPS).
	Supply []float64
}

// Compute derives the traffic matrix from a snapshot using the waterfall
// described in the paper: every region starts local; regions whose
// demand/supply ratio exceeds the global ratio shed their excess demand
// to the nearest regions with spare capacity.
func Compute(topo *cluster.Topology, snap Snapshot) Matrix {
	n := topo.NumRegions()
	if len(snap.Demand) != n || len(snap.Supply) != n {
		panic("gtc: snapshot size mismatch")
	}
	// flow[i][j]: demand originating in j executed by region i.
	flow := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		flow[i][i] = snap.Demand[i]
	}
	totalDemand, totalSupply := 0.0, 0.0
	for i := 0; i < n; i++ {
		totalDemand += snap.Demand[i]
		totalSupply += snap.Supply[i]
	}
	if totalSupply <= 0 || totalDemand <= 0 {
		return Identity(n)
	}
	// Global target ratio: with demand below capacity this is <1 and the
	// waterfall stops once no region is overloaded (ratio ≤ 1); with
	// demand above capacity it equalizes everyone at the same ratio.
	target := totalDemand / totalSupply
	target = max(target, 1)
	spare := make([]float64, n)
	excess := make([]float64, n)
	for i := 0; i < n; i++ {
		if snap.Supply[i] <= 0 {
			excess[i] = snap.Demand[i]
			continue
		}
		budget := target * snap.Supply[i]
		if snap.Demand[i] > budget {
			excess[i] = snap.Demand[i] - budget
		} else {
			spare[i] = budget - snap.Demand[i]
		}
	}
	// Shed from the most overloaded regions first, to their nearest
	// spare-capacity neighbours.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if excess[order[a]] != excess[order[b]] {
			return excess[order[a]] > excess[order[b]]
		}
		return order[a] < order[b]
	})
	for _, j := range order {
		if excess[j] <= 1e-12 {
			continue
		}
		for _, i := range topo.Nearest(cluster.RegionID(j)) {
			ii := int(i)
			if ii == j || spare[ii] <= 1e-12 {
				continue
			}
			t := excess[j]
			if spare[ii] < t {
				t = spare[ii]
			}
			flow[ii][j] += t
			flow[j][j] -= t
			spare[ii] -= t
			excess[j] -= t
			if excess[j] <= 1e-12 {
				break
			}
		}
	}
	// Normalize rows into pull fractions.
	m := make(Matrix, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		rowSum := 0.0
		for j := 0; j < n; j++ {
			rowSum += flow[i][j]
		}
		if rowSum <= 0 {
			m[i][i] = 1
			continue
		}
		for j := 0; j < n; j++ {
			m[i][j] = flow[i][j] / rowSum
		}
	}
	return m
}

// Conductor periodically recomputes and publishes the matrix.
type Conductor struct {
	topo  *cluster.Topology
	store *config.Store
	// SnapshotFn provides the near-real-time demand/supply view.
	SnapshotFn func() Snapshot

	Computations stats.Counter
	// Enabled allows experiments to freeze the GTC (controller-downtime
	// and region-local ablations).
	Enabled bool
}

// NewConductor starts a conductor recomputing every interval.
func NewConductor(engine *sim.Engine, topo *cluster.Topology, store *config.Store, interval time.Duration, snapshotFn func() Snapshot) *Conductor {
	c := &Conductor{topo: topo, store: store, SnapshotFn: snapshotFn, Enabled: true}
	store.Set(MatrixKey, Identity(topo.NumRegions()))
	engine.Every(interval, c.tick)
	return c
}

func (c *Conductor) tick() {
	if !c.Enabled {
		return
	}
	m := Compute(c.topo, c.SnapshotFn())
	c.store.Set(MatrixKey, m)
	c.Computations.Inc()
}
