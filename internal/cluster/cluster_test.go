package cluster

import (
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/rng"
)

func TestGenerateDefaults(t *testing.T) {
	topo := Generate(DefaultConfig(), rng.New(1))
	if topo.NumRegions() != 12 {
		t.Fatalf("regions = %d", topo.NumRegions())
	}
	if topo.TotalWorkers() != 1200 {
		t.Fatalf("total workers = %d, want exactly 1200 after remainder assignment", topo.TotalWorkers())
	}
	for _, r := range topo.Regions() {
		if r.Workers < 1 {
			t.Fatalf("region %s has %d workers", r.Name, r.Workers)
		}
		if r.DurableQShards < 2 {
			t.Fatalf("region %s has %d shards", r.Name, r.DurableQShards)
		}
	}
}

func TestGenerateSkew(t *testing.T) {
	topo := Generate(DefaultConfig(), rng.New(7))
	min, max := 1<<30, 0
	for _, r := range topo.Regions() {
		if r.Workers < min {
			min = r.Workers
		}
		if r.Workers > max {
			max = r.Workers
		}
	}
	if float64(max)/float64(min) < 1.5 {
		t.Fatalf("capacity distribution not uneven: min=%d max=%d", min, max)
	}
}

func TestLatencyModel(t *testing.T) {
	regions := []Region{
		{ID: 0, Coord: 0, Workers: 10},
		{ID: 1, Coord: 1, Workers: 10},
		{ID: 2, Coord: 5, Workers: 10},
	}
	topo := NewTopology(regions, time.Millisecond, 10*time.Millisecond)
	if topo.Latency(0, 0) != time.Millisecond {
		t.Fatalf("intra latency = %v", topo.Latency(0, 0))
	}
	near := topo.Latency(0, 1)
	far := topo.Latency(0, 2)
	if near >= far {
		t.Fatalf("near (%v) should be < far (%v)", near, far)
	}
	if topo.Latency(0, 2) != topo.Latency(2, 0) {
		t.Fatal("latency not symmetric")
	}
	// Cross-region latency should dwarf intra-region (paper: 100-1000x).
	if far < 10*topo.Latency(0, 0) {
		t.Fatalf("cross-region latency %v not much larger than intra %v", far, topo.Latency(0, 0))
	}
}

func TestNearestOrdering(t *testing.T) {
	regions := []Region{
		{ID: 0, Coord: 0, Workers: 1},
		{ID: 1, Coord: 2, Workers: 1},
		{ID: 2, Coord: 1, Workers: 1},
		{ID: 3, Coord: 10, Workers: 1},
	}
	topo := NewTopology(regions, time.Millisecond, time.Millisecond)
	got := topo.Nearest(0)
	want := []RegionID{0, 2, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nearest(0) = %v, want %v", got, want)
		}
	}
}

func TestCapacityShareSumsToOne(t *testing.T) {
	f := func(seed uint64) bool {
		topo := Generate(DefaultConfig(), rng.New(seed))
		sum := 0.0
		for _, s := range topo.CapacityShare() {
			if s <= 0 {
				return false
			}
			sum += s
		}
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestAlwaysSelfFirst(t *testing.T) {
	f := func(seed uint64) bool {
		topo := Generate(DefaultConfig(), rng.New(seed))
		for i := 0; i < topo.NumRegions(); i++ {
			order := topo.Nearest(RegionID(i))
			if order[0] != RegionID(i) {
				return false
			}
			if len(order) != topo.NumRegions() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(), rng.New(99))
	b := Generate(DefaultConfig(), rng.New(99))
	for i := range a.Regions() {
		if a.Regions()[i] != b.Regions()[i] {
			t.Fatal("same seed produced different topologies")
		}
	}
}

func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid cluster config should panic")
		}
	}()
	Generate(Config{Regions: 0, TotalWorkers: 10}, rng.New(1))
}

func TestGenerateDefaultsFillZeroParams(t *testing.T) {
	cfg := Config{Regions: 2, TotalWorkers: 4} // latency model and shard minimum are constants
	topo := Generate(cfg, rng.New(2))
	if topo.Latency(0, 1) <= topo.Latency(0, 0) {
		t.Fatal("default latencies not applied")
	}
	for _, r := range topo.Regions() {
		if r.DurableQShards < 1 {
			t.Fatal("default shard minimum not applied")
		}
	}
}

func TestSubsetPreservesLatencies(t *testing.T) {
	topo := Generate(DefaultConfig(), rng.New(7))
	ids := []RegionID{2, 5, 9}
	sub := topo.Subset(ids)
	if sub.NumRegions() != 3 {
		t.Fatalf("subset has %d regions, want 3", sub.NumRegions())
	}
	for i, gi := range ids {
		r := sub.Region(RegionID(i))
		if r.ID != RegionID(i) {
			t.Errorf("subset region %d renumbered to %d", i, r.ID)
		}
		parent := topo.Region(gi)
		if r.Name != parent.Name || r.Workers != parent.Workers ||
			r.DurableQShards != parent.DurableQShards || r.Coord != parent.Coord {
			t.Errorf("subset region %d does not match parent %d: %+v vs %+v", i, gi, r, parent)
		}
		for j, gj := range ids {
			if got, want := sub.Latency(RegionID(i), RegionID(j)), topo.Latency(gi, gj); got != want {
				t.Errorf("latency subset(%d,%d)=%v, parent(%d,%d)=%v", i, j, got, gi, gj, want)
			}
		}
	}
}

func TestSubsetPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Subset should panic")
		}
	}()
	Generate(DefaultConfig(), rng.New(7)).Subset(nil)
}
