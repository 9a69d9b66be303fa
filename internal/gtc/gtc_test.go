package gtc

import (
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

func lineTopo(n int) *cluster.Topology {
	regions := make([]cluster.Region, n)
	for i := range regions {
		regions[i] = cluster.Region{ID: cluster.RegionID(i), Coord: float64(i), Workers: 10, DurableQShards: 1}
	}
	return cluster.NewTopology(regions, time.Millisecond, 10*time.Millisecond)
}

// Properties: rows are stochastic; regions below the target ratio never
// shed (their demand is never pulled by others when they are not
// overloaded).
func TestComputeProperties(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		topo := cluster.Generate(cluster.DefaultConfig(), src)
		n := topo.NumRegions()
		snap := Snapshot{Demand: make([]float64, n), Supply: make([]float64, n)}
		for i := 0; i < n; i++ {
			snap.Demand[i] = src.Range(0, 500)
			snap.Supply[i] = src.Range(1, 300)
		}
		m := Compute(topo, snap)
		if !m.Validate(n) {
			return false
		}
		// Compute the global target ratio as the algorithm does.
		var td, ts float64
		for i := 0; i < n; i++ {
			td += snap.Demand[i]
			ts += snap.Supply[i]
		}
		target := td / ts
		if target < 1 {
			target = 1
		}
		for j := 0; j < n; j++ {
			overloaded := snap.Demand[j] > target*snap.Supply[j]+1e-9
			if overloaded {
				continue
			}
			for i := 0; i < n; i++ {
				if i != j && m[i][j] > 1e-9 {
					return false // someone pulled from a non-overloaded region
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConductorPublishes(t *testing.T) {
	e := sim.NewEngine()
	topo := lineTopo(2)
	store := config.NewStore(e)
	demand := []float64{200, 0}
	c := NewConductor(e, topo, store, time.Minute, func() Snapshot {
		return Snapshot{Demand: demand, Supply: []float64{100, 100}}
	})
	cache := config.NewCache(store, MatrixKey)
	e.RunFor(2 * time.Minute)
	v, ok := cache.Get()
	if !ok {
		t.Fatal("no matrix published")
	}
	m := v.(Matrix)
	if m[1][0] <= 0 {
		t.Fatalf("published matrix ignored overload: %v", m)
	}
	if c.Computations.Value() < 1 {
		t.Fatal("no computations recorded")
	}
	// Disabled conductor stops recomputing (controller downtime).
	c.Enabled = false
	before := c.Computations.Value()
	e.RunFor(5 * time.Minute)
	if c.Computations.Value() != before {
		t.Fatal("disabled conductor kept computing")
	}
}

func TestIdentityMatrix(t *testing.T) {
	m := Identity(3)
	if !m.Validate(3) {
		t.Fatal("identity not stochastic")
	}
	if m[1][1] != 1 || m[1][0] != 0 {
		t.Fatal("identity wrong")
	}
}

// Validate checks row-stochasticity: the property every computed
// matrix must have.
func (m Matrix) Validate(n int) bool {
	if len(m) != n {
		return false
	}
	for _, row := range m {
		if len(row) != n {
			return false
		}
		sum := 0.0
		for _, v := range row {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		if sum < 0.999999 || sum > 1.000001 {
			return false
		}
	}
	return true
}

func TestComputePanicsOnSizeMismatch(t *testing.T) {
	topo := lineTopo(3)
	defer func() {
		if recover() == nil {
			t.Fatal("snapshot size mismatch should panic")
		}
	}()
	Compute(topo, Snapshot{Demand: []float64{1}, Supply: []float64{1, 1, 1}})
}
