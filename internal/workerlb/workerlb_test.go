package workerlb

import (
	"fmt"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/locality"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

func pool(e *sim.Engine, n int, cpuMIPS float64) []*worker.Worker {
	p := worker.DefaultParams()
	p.CPUMIPS = cpuMIPS
	src := rng.New(42)
	out := make([]*worker.Worker, n)
	for i := range out {
		out[i] = worker.New(worker.ID{Index: i}, e, p, src.Split(), nil)
	}
	return out
}

func lbSpec(name string) *function.Spec {
	return &function.Spec{Name: name, Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry}
}

var lbID uint64

func lbCall(s *function.Spec) *function.Call {
	lbID++
	return &function.Call{ID: lbID, Spec: s, CPUWorkM: 100, MemMB: 10, ExecSecs: 1}
}

func TestDispatchSucceeds(t *testing.T) {
	e := sim.NewEngine()
	lb := New(rng.New(1), pool(e, 4, 100000))
	done := 0
	if !lb.Dispatch(lbCall(lbSpec("f")), func(*function.Call, error) { done++ }) {
		t.Fatal("dispatch failed on idle pool")
	}
	e.RunFor(time.Minute)
	if done != 1 {
		t.Fatalf("done = %d", done)
	}
	if lb.Dispatched.Value() != 1 {
		t.Fatalf("dispatched = %v", lb.Dispatched.Value())
	}
}

func TestPowerOfTwoBalances(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 10, 100000)
	lb := New(rng.New(2), workers)
	s := lbSpec("f")
	for i := 0; i < 300; i++ {
		lb.Dispatch(lbCall(s), func(*function.Call, error) {})
	}
	// With 300 concurrent 1s calls over 10 workers, power-of-two keeps the
	// spread tight: max/min running should be well under 3x.
	min, max := 1<<30, 0
	for _, w := range workers {
		r := w.Running()
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min == 0 || float64(max)/float64(min) > 3 {
		t.Fatalf("imbalance: min=%d max=%d", min, max)
	}
}

func TestLocalityRestrictsWorkers(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 10, 100000)
	lb := New(rng.New(3), workers)
	a := locality.Partition([]locality.FuncProfile{
		{Name: "fa", MemMB: 10, Load: 1},
		{Name: "fb", MemMB: 10, Load: 1},
	}, 2, 10)
	lb.SetAssignment(a)
	sa := lbSpec("fa")
	for i := 0; i < 100; i++ {
		lb.Dispatch(lbCall(sa), func(*function.Call, error) {})
	}
	// All dispatches for fa must land inside its group slice.
	groupPool := lb.GroupPool(sa)
	inGroup := 0
	for _, w := range groupPool {
		inGroup += w.Running()
	}
	total := 0
	for _, w := range workers {
		total += w.Running()
	}
	if inGroup != total {
		t.Fatalf("calls escaped locality group: %d of %d", inGroup, total)
	}
	if len(groupPool) >= len(workers) {
		t.Fatal("group pool not a strict subset")
	}
}

func TestDispatchRejectsWhenSaturated(t *testing.T) {
	e := sim.NewEngine()
	p := worker.DefaultParams()
	p.MaxConcurrency = 1
	w1 := worker.New(worker.ID{Index: 0}, e, p, rng.New(1), nil)
	w2 := worker.New(worker.ID{Index: 1}, e, p, rng.New(2), nil)
	lb := New(rng.New(4), []*worker.Worker{w1, w2})
	s := lbSpec("f")
	ok1 := lb.Dispatch(lbCall(s), func(*function.Call, error) {})
	ok2 := lb.Dispatch(lbCall(s), func(*function.Call, error) {})
	ok3 := lb.Dispatch(lbCall(s), func(*function.Call, error) {})
	if !ok1 || !ok2 {
		t.Fatal("pool capacity dispatches failed")
	}
	if ok3 {
		t.Fatal("saturated pool accepted a third call")
	}
	if lb.Rejected.Value() != 1 {
		t.Fatalf("rejected = %v", lb.Rejected.Value())
	}
}

func TestSetAssignmentNilRestoresSingleGroup(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 6, 100000)
	lb := New(rng.New(5), workers)
	a := locality.Partition([]locality.FuncProfile{{Name: "f", MemMB: 1, Load: 1}}, 2, 6)
	lb.SetAssignment(a)
	lb.SetAssignment(nil)
	if got := lb.GroupPool(lbSpec("anything")); len(got) != 6 {
		t.Fatalf("group pool = %d workers, want full pool", len(got))
	}
}

func TestGroupLoads(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 1000)
	lb := New(rng.New(6), workers)
	a := locality.Partition([]locality.FuncProfile{
		{Name: "f0", MemMB: 1, Load: 1},
		{Name: "f1", MemMB: 1, Load: 1},
	}, 2, 4)
	lb.SetAssignment(a)
	// Load only group of f0.
	s := lbSpec("f0")
	for i := 0; i < 4; i++ {
		lb.Dispatch(lbCall(s), func(*function.Call, error) {})
	}
	loads := lb.GroupLoads()
	g := a.GroupOf("f0")
	if loads[g] <= loads[1-g] {
		t.Fatalf("loaded group not hotter: %v", loads)
	}
}

func TestMeanUtilization(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 2, 1000)
	lb := New(rng.New(7), workers)
	if lb.MeanUtilization() != 0 {
		t.Fatal("idle pool utilization nonzero")
	}
	lb.Dispatch(&function.Call{ID: 999999, Spec: lbSpec("f"), CPUWorkM: 1000, ExecSecs: 1, MemMB: 1}, func(*function.Call, error) {})
	if lb.MeanUtilization() != 0.5 {
		t.Fatalf("mean utilization = %v, want 0.5", lb.MeanUtilization())
	}
}

func TestWorkerSharesSliceCoverage(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 10, 100000)
	lb := New(rng.New(8), workers)
	var profiles []locality.FuncProfile
	for i := 0; i < 30; i++ {
		profiles = append(profiles, locality.FuncProfile{Name: fmt.Sprintf("f%d", i), MemMB: 10, Load: 1})
	}
	a := locality.Partition(profiles, 3, 10)
	lb.SetAssignment(a)
	// Every worker must belong to exactly one group slice.
	seen := map[*worker.Worker]int{}
	for g := 0; g < a.Groups; g++ {
		for _, w := range lb.groups[g] {
			seen[w]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("group slices cover %d workers, want 10", len(seen))
	}
	for w, n := range seen {
		if n != 1 {
			t.Fatalf("worker %v in %d groups", w.ID, n)
		}
	}
}

func TestGroupPoolFallbacks(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 100000)
	lb := New(rng.New(9), workers)
	// No assignment: full pool.
	if len(lb.GroupPool(lbSpec("x"))) != 4 {
		t.Fatal("no-assignment pool should be full")
	}
	if lb.Assignment() != nil {
		t.Fatal("assignment should be nil initially")
	}
	a := locality.Partition([]locality.FuncProfile{{Name: "f", MemMB: 1, Load: 1}}, 2, 4)
	lb.SetAssignment(a)
	// Unknown function hashes to a stable group subset.
	p1 := lb.GroupPool(lbSpec("unknown-fn"))
	p2 := lb.GroupPool(lbSpec("unknown-fn"))
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("unknown-function pool unstable: %d vs %d", len(p1), len(p2))
	}
}

func TestAliveCount(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 3, 100000)
	lb := New(rng.New(10), workers)
	if lb.Alive() != 3 {
		t.Fatalf("alive = %d", lb.Alive())
	}
	workers[0].Fail()
	workers[1].Fail()
	if lb.Alive() != 1 {
		t.Fatalf("alive after failures = %d", lb.Alive())
	}
	workers[0].Recover()
	if lb.Alive() != 2 {
		t.Fatalf("alive after recovery = %d", lb.Alive())
	}
}

func TestDispatchSkipsFailedWorkers(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 100000)
	lb := New(rng.New(11), workers)
	workers[0].Fail()
	workers[1].Fail()
	ok := 0
	for i := 0; i < 50; i++ {
		if lb.Dispatch(lbCall(lbSpec("f")), func(*function.Call, error) {}) {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no dispatches with 2 of 4 workers alive")
	}
	if workers[0].Running()+workers[1].Running() != 0 {
		t.Fatal("failed workers received calls")
	}
}

func TestEmptyPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty pool should panic")
		}
	}()
	New(rng.New(1), nil)
}

// A pool whose IDs do not match positions would make StateOf miss every
// detected failure, so New refuses it.
func TestNewRejectsPoolOutOfIndexOrder(t *testing.T) {
	workers := pool(sim.NewEngine(), 3, 100000)
	workers[0], workers[1] = workers[1], workers[0]
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a pool whose ID.Index differs from position")
		}
	}()
	New(rng.New(1), workers)
}
