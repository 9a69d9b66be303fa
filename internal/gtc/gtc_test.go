package gtc

import (
	"math"
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

func TestIdentityWhenBalanced(t *testing.T) {
	topo := lineTopo(3)
	m := Compute(topo, Snapshot{Demand: []float64{10, 10, 10}, Supply: []float64{100, 100, 100}})
	for i := 0; i < 3; i++ {
		if m[i][i] != 1 {
			t.Fatalf("balanced load should stay local: %v", m)
		}
	}
}

func TestOverloadedShedsToNearest(t *testing.T) {
	topo := lineTopo(3)
	// Region 0 has demand 200 over supply 100; regions 1 and 2 idle.
	m := Compute(topo, Snapshot{Demand: []float64{200, 0, 0}, Supply: []float64{100, 100, 100}})
	if !m.Validate(3) {
		t.Fatalf("matrix not stochastic: %v", m)
	}
	// Region 1 (nearest) should pull from region 0; region 2 shouldn't
	// need to because region 1 absorbs the full 100 excess.
	if m[1][0] <= 0 {
		t.Fatalf("nearest region not pulling: %v", m)
	}
	if m[2][0] != 0 {
		t.Fatalf("far region pulled unnecessarily: %v", m)
	}
	// Region 0 keeps what it can serve.
	if math.Abs(m[0][0]-1) > 1e-9 {
		t.Fatalf("region 0 row = %v, want all-local pulls", m[0])
	}
}

func TestWaterfallSpillsBeyondNearest(t *testing.T) {
	topo := lineTopo(3)
	// Excess 250 exceeds region 1's spare 100, so region 2 must help.
	m := Compute(topo, Snapshot{Demand: []float64{350, 0, 0}, Supply: []float64{100, 100, 100}})
	if m[1][0] <= 0 || m[2][0] <= 0 {
		t.Fatalf("waterfall did not spill: %v", m)
	}
}

func TestGlobalOverloadEqualizes(t *testing.T) {
	topo := lineTopo(2)
	// Total demand 400 vs supply 200: both regions end at ratio 2.
	m := Compute(topo, Snapshot{Demand: []float64{400, 0}, Supply: []float64{100, 100}})
	if !m.Validate(2) {
		t.Fatalf("matrix: %v", m)
	}
	// Region 1 should take half of region 0's demand.
	if math.Abs(m[1][0]-1) > 1e-9 {
		t.Fatalf("region 1 should pull only from region 0: %v", m)
	}
}

func TestZeroDemandIdentity(t *testing.T) {
	topo := lineTopo(4)
	m := Compute(topo, Snapshot{Demand: []float64{0, 0, 0, 0}, Supply: []float64{1, 1, 1, 1}})
	for i := 0; i < 4; i++ {
		if m[i][i] != 1 {
			t.Fatalf("zero demand should be identity: %v", m)
		}
	}
}

func TestZeroSupplyRegionShedsAll(t *testing.T) {
	topo := lineTopo(2)
	m := Compute(topo, Snapshot{Demand: []float64{100, 0}, Supply: []float64{0, 200}})
	if !m.Validate(2) {
		t.Fatalf("matrix: %v", m)
	}
	if m[1][0] <= 0 {
		t.Fatalf("supply-less region kept its demand: %v", m)
	}
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

func TestMatrixValidateRejects(t *testing.T) {
	if (Matrix{{0.5, 0.4}}).Validate(2) {
		t.Fatal("short matrix validated")
	}
	if (Matrix{{0.5, 0.6}, {1, 0}}).Validate(2) {
		t.Fatal("non-stochastic row validated")
	}
	if (Matrix{{1.5, -0.5}, {0, 1}}).Validate(2) {
		t.Fatal("negative entry validated")
	}
	if (Matrix{{1, 0, 0}, {0, 1, 0}}).Validate(2) {
		t.Fatal("wrong row length validated")
	}
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
