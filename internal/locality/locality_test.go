package locality

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"xfaas/internal/rng"
)

func profiles(n int, src *rng.Source) []FuncProfile {
	out := make([]FuncProfile, n)
	for i := range out {
		out[i] = FuncProfile{
			Name:  fmt.Sprintf("f%03d", i),
			MemMB: src.LogNormal(3, 1.5),
			Load:  src.LogNormal(2, 1),
		}
	}
	return out
}

func TestPartitionCoversAllFunctions(t *testing.T) {
	ps := profiles(100, rng.New(1))
	a := Partition(ps, 8, 64)
	if a.Groups != 8 {
		t.Fatalf("groups = %d", a.Groups)
	}
	for _, p := range ps {
		g, ok := a.FuncGroup[p.Name]
		if !ok {
			t.Fatalf("function %s unassigned", p.Name)
		}
		if g < 0 || g >= 8 {
			t.Fatalf("function %s in invalid group %d", p.Name, g)
		}
	}
}

// spreadTopHogs reports whether the k largest memory consumers are all in
// distinct groups.
func (a *Assignment) spreadTopHogs(profiles []FuncProfile, k int) bool {
	if k > a.Groups {
		k = a.Groups
	}
	sorted := append([]FuncProfile(nil), profiles...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].MemMB > sorted[j].MemMB })
	seen := make(map[int]bool)
	for i := 0; i < k && i < len(sorted); i++ {
		g := a.GroupOf(sorted[i].Name)
		if seen[g] {
			return false
		}
		seen[g] = true
	}
	return true
}

func TestMemoryHogsSpread(t *testing.T) {
	ps := profiles(200, rng.New(2))
	a := Partition(ps, 10, 100)
	if !a.spreadTopHogs(ps, 10) {
		t.Fatal("top-10 memory hogs share a group")
	}
}

func TestMemoryBalanced(t *testing.T) {
	ps := profiles(500, rng.New(3))
	a := Partition(ps, 8, 64)
	min, max := a.GroupMemMB[0], a.GroupMemMB[0]
	for _, m := range a.GroupMemMB {
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if max/min > 1.5 {
		t.Fatalf("group memory imbalance %v/%v", max, min)
	}
}

func TestEphemeralRoundRobin(t *testing.T) {
	var ps []FuncProfile
	for i := 0; i < 40; i++ {
		ps = append(ps, FuncProfile{Name: fmt.Sprintf("morph%02d", i), MemMB: 100, Load: 1, Ephemeral: true})
	}
	a := Partition(ps, 4, 16)
	counts := make([]int, 4)
	for _, p := range ps {
		counts[a.FuncGroup[p.Name]]++
	}
	for g, c := range counts {
		if c != 10 {
			t.Fatalf("group %d has %d ephemerals, want exactly 10 (round-robin)", g, c)
		}
	}
}

func TestWorkerShares(t *testing.T) {
	got := WorkerShares([]float64{3, 1}, 8)
	if got[0]+got[1] != 8 {
		t.Fatalf("shares don't sum: %v", got)
	}
	if got[0] <= got[1] {
		t.Fatalf("heavier group got fewer workers: %v", got)
	}
	even := WorkerShares([]float64{0, 0, 0}, 7)
	if even[0]+even[1]+even[2] != 7 {
		t.Fatalf("zero-load shares don't sum: %v", even)
	}
}

func TestWorkerSharesMinimumOne(t *testing.T) {
	got := WorkerShares([]float64{1000, 0.0001, 0.0001}, 10)
	sum := 0
	for _, g := range got {
		if g < 1 {
			t.Fatalf("group starved: %v", got)
		}
		sum += g
	}
	if sum != 10 {
		t.Fatalf("sum = %d", sum)
	}
}

// Property: worker shares always sum exactly to the pool size and every
// group gets at least one worker.
func TestWorkerSharesProperty(t *testing.T) {
	f := func(raw []uint8, extra uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		loads := make([]float64, len(raw))
		for i, r := range raw {
			loads[i] = float64(r)
		}
		total := len(raw) + int(extra)
		shares := WorkerShares(loads, total)
		sum := 0
		for _, s := range shares {
			if s < 1 {
				return false
			}
			sum += s
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: partition assigns every function exactly once regardless of
// shape.
func TestPartitionTotalProperty(t *testing.T) {
	f := func(seed uint64, nRaw, gRaw uint8) bool {
		n := int(nRaw%200) + 1
		g := int(gRaw%16) + 1
		ps := profiles(n, rng.New(seed))
		a := Partition(ps, g, g*4)
		if len(a.FuncGroup) != n {
			return false
		}
		sum := 0
		for _, c := range a.WorkerCounts {
			sum += c
		}
		return sum == g*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalance(t *testing.T) {
	ps := profiles(50, rng.New(4))
	a := Partition(ps, 4, 40)
	a.Rebalance([]float64{10, 1, 1, 1}, 40)
	if a.WorkerCounts[0] <= a.WorkerCounts[1] {
		t.Fatalf("rebalance ignored load: %v", a.WorkerCounts)
	}
	sum := 0
	for _, c := range a.WorkerCounts {
		sum += c
	}
	if sum != 40 {
		t.Fatalf("rebalanced sum = %d", sum)
	}
}

func TestGroupOfUnknownStable(t *testing.T) {
	a := Partition(profiles(10, rng.New(5)), 4, 8)
	g1 := a.GroupOf("brand-new-function")
	g2 := a.GroupOf("brand-new-function")
	if g1 != g2 {
		t.Fatal("unknown function group not stable")
	}
	if g1 < 0 || g1 >= 4 {
		t.Fatalf("unknown function group out of range: %d", g1)
	}
}

func TestMoreGroupsThanWorkersClamped(t *testing.T) {
	a := Partition(profiles(10, rng.New(6)), 64, 4)
	if a.Groups != 4 {
		t.Fatalf("groups = %d, want clamped to worker count", a.Groups)
	}
}
