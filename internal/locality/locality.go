// Package locality implements the Locality Optimizer (paper §4.5.2): it
// partitions functions into non-overlapping locality groups — spreading
// memory-hungry functions across groups and round-robining ephemeral
// (Morphing-style) functions — and maps each function group to a worker
// group sized proportionally to the group's load. WorkerLBs then dispatch
// a function only to its group, so each worker sees a small, stable subset
// of functions.
package locality

import (
	"math"
	"sort"
)

// FuncProfile is the per-function input to partitioning, derived from the
// profiling data the paper's Locality Optimizer consumes.
type FuncProfile struct {
	Name string
	// MemMB is the expected per-instance memory (a high percentile, so
	// hogs are recognized).
	MemMB float64
	// Load is the function's expected CPU demand (MIPS); worker-group
	// sizing follows it.
	Load float64
	// Ephemeral marks programmatically generated functions that are
	// assigned round-robin instead of by memory packing.
	Ephemeral bool
}

// Assignment maps functions to groups and sizes each group's worker
// share.
type Assignment struct {
	Groups int
	// FuncGroup maps function name → group index.
	FuncGroup map[string]int
	// WorkerCounts is how many workers of a pool each group receives;
	// the pool is sliced contiguously in this order.
	WorkerCounts []int
	// GroupMemMB and GroupLoad are the totals behind the decision,
	// exposed for tests and rebalancing.
	GroupMemMB []float64
	GroupLoad  []float64
}

// GroupOf returns the group for a function name; unknown names hash to a
// stable group so newly created functions still dispatch.
func (a *Assignment) GroupOf(name string) int {
	if g, ok := a.FuncGroup[name]; ok {
		return g
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % uint32(a.Groups))
}

// Partition builds an assignment over the given number of groups for a
// pool of totalWorkers workers. Non-ephemeral functions are packed onto
// the group with the least accumulated memory, in descending memory
// order, which both balances memory and spreads the largest hogs into
// different groups. Ephemeral functions are round-robined. Worker counts
// follow group load shares.
func Partition(profiles []FuncProfile, groups, totalWorkers int) *Assignment {
	if groups <= 0 {
		panic("locality: non-positive group count")
	}
	groups = max(min(groups, totalWorkers), 1)
	a := &Assignment{
		Groups:     groups,
		FuncGroup:  make(map[string]int, len(profiles)),
		GroupMemMB: make([]float64, groups),
		GroupLoad:  make([]float64, groups),
	}
	var regular, ephemeral []FuncProfile
	for _, p := range profiles {
		if p.Ephemeral {
			ephemeral = append(ephemeral, p)
		} else {
			regular = append(regular, p)
		}
	}
	sort.SliceStable(regular, func(i, j int) bool {
		if regular[i].MemMB != regular[j].MemMB {
			return regular[i].MemMB > regular[j].MemMB
		}
		return regular[i].Name < regular[j].Name
	})
	for _, p := range regular {
		g := 0
		for i := 1; i < groups; i++ {
			if a.GroupMemMB[i] < a.GroupMemMB[g] {
				g = i
			}
		}
		a.FuncGroup[p.Name] = g
		a.GroupMemMB[g] += p.MemMB
		a.GroupLoad[g] += p.Load
	}
	sort.SliceStable(ephemeral, func(i, j int) bool { return ephemeral[i].Name < ephemeral[j].Name })
	for i, p := range ephemeral {
		g := i % groups
		a.FuncGroup[p.Name] = g
		a.GroupMemMB[g] += p.MemMB
		a.GroupLoad[g] += p.Load
	}
	a.WorkerCounts = WorkerShares(a.GroupLoad, totalWorkers)
	return a
}

// WorkerShares splits totalWorkers across groups proportionally to loads
// using the largest-remainder method, guaranteeing at least one worker
// per group (totalWorkers must be ≥ len(loads)).
func WorkerShares(loads []float64, totalWorkers int) []int {
	n := len(loads)
	if n == 0 {
		return nil
	}
	if totalWorkers < n {
		panic("locality: fewer workers than groups")
	}
	total := 0.0
	for _, l := range loads {
		if l < 0 {
			panic("locality: negative load")
		}
		total += l
	}
	out := make([]int, n)
	if total == 0 {
		// Even split.
		for i := range out {
			out[i] = totalWorkers / n
		}
		for i := 0; i < totalWorkers%n; i++ {
			out[i]++
		}
		return out
	}
	// Reserve one worker per group, distribute the rest proportionally.
	spare := totalWorkers - n
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for i, l := range loads {
		exact := float64(spare) * l / total
		whole := int(math.Floor(exact))
		out[i] = 1 + whole
		used += whole
		rems[i] = rem{idx: i, frac: exact - float64(whole)}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; i < spare-used; i++ {
		out[rems[i%n].idx]++
	}
	return out
}

// Rebalance recomputes worker counts for an existing assignment from
// freshly measured per-group loads (paper: "the Locality Optimizer can
// move workers from one locality group to another to balance the load").
func (a *Assignment) Rebalance(measuredLoad []float64, totalWorkers int) {
	if len(measuredLoad) != a.Groups {
		panic("locality: measured load length mismatch")
	}
	a.GroupLoad = append([]float64(nil), measuredLoad...)
	a.WorkerCounts = WorkerShares(measuredLoad, totalWorkers)
}
