package policy

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

func pullSpec() *function.Spec {
	return &function.Spec{
		Name: "f", Namespace: "ns", Deadline: time.Hour,
		Retry:     function.DefaultRetry,
		Resources: function.ResourceModel{CodeMB: 10, JITCodeMB: 5},
	}
}

func pullCall(id uint64) *function.Call {
	return &function.Call{ID: id, Spec: pullSpec(), CPUWorkM: 100, MemMB: 10, ExecSecs: 1}
}

// newPull attaches a pull policy with the given per-tick cap.
func newPull(h *fakeHost, maxPerWorker int) *Pull {
	p := &Pull{maxPerWorker: maxPerWorker}
	p.Attach(h)
	return p
}

func pullPool(e *sim.Engine, n int) []*worker.Worker {
	src := rng.New(99)
	var pool []*worker.Worker
	for i := 0; i < n; i++ {
		pool = append(pool, worker.New(worker.ID{Index: i}, e, worker.DefaultParams(), src.Split(), nil))
	}
	return pool
}

// TestPullPickPrefersIdlest: a worker with running load loses to idle
// peers; with every idle worker tied, the pick is one RNG draw over the
// tied set.
func TestPullPickPrefersIdlest(t *testing.T) {
	e := sim.NewEngine()
	pool := pullPool(e, 3)
	// Occupy worker 0 so its load is nonzero.
	if !pool[0].TryExecute(pullCall(1000), func(*function.Call, error) {}) {
		t.Fatal("worker 0 rejected the occupying call")
	}
	h := &fakeHost{pool: pool}
	p := newPull(h, pullMaxPerWorker)
	for i := 0; i < 20; i++ {
		w, ok := p.pick(pullCall(uint64(i)))
		if !ok {
			t.Fatal("pick failed with idle workers available")
		}
		if w.ID.Index == 0 {
			t.Fatal("pick chose the loaded worker over idle peers")
		}
	}
}

// TestPullPickHonorsPerTickCap: with maxPerWorker=1 and n workers, picks
// n calls (one per worker) and then stops; resetting the counters via
// Tick re-arms the allowance.
func TestPullPickHonorsPerTickCap(t *testing.T) {
	e := sim.NewEngine()
	pool := pullPool(e, 3)
	h := &fakeHost{pool: pool}
	p := newPull(h, 1)
	picked := map[int]int{}
	for i := 0; i < 3; i++ {
		w, ok := p.pick(pullCall(uint64(i)))
		if !ok {
			t.Fatalf("pick %d failed with allowance remaining", i)
		}
		picked[w.ID.Index]++
	}
	for idx, n := range picked {
		if n != 1 {
			t.Fatalf("worker %d pulled %d calls with maxPerWorker=1", idx, n)
		}
	}
	if _, ok := p.pick(pullCall(99)); ok {
		t.Fatal("pick succeeded past every worker's per-tick allowance")
	}
	p.Tick() // resets the per-tick counts
	if _, ok := p.pick(pullCall(100)); !ok {
		t.Fatal("allowance did not re-arm on the next tick")
	}
}

// TestPullPickStopsWhenSaturated: a pool at MaxConcurrency yields
// (nil, false) — the drain stops instead of overloading a worker.
func TestPullPickStopsWhenSaturated(t *testing.T) {
	e := sim.NewEngine()
	params := worker.DefaultParams()
	params.MaxConcurrency = 1
	src := rng.New(5)
	pool := []*worker.Worker{worker.New(worker.ID{Index: 0}, e, params, src.Split(), nil)}
	if !pool[0].TryExecute(pullCall(1), func(*function.Call, error) {}) {
		t.Fatal("worker rejected the first call")
	}
	h := &fakeHost{pool: pool}
	p := newPull(h, pullMaxPerWorker)
	if _, ok := p.pick(pullCall(2)); ok {
		t.Fatal("pick handed a call to a saturated worker")
	}
}

// TestBaseHooksAreInert: the embedded defaults decline everything, so a
// minimal policy participates in every hook without perturbing anything.
func TestBaseHooksAreInert(t *testing.T) {
	var b Base
	c := &function.Call{Spec: pullSpec()}
	b.OnAdmit(c)
	b.OnScheduled(c)
	if base, ok := b.RetryBase(c); ok || base != 0 {
		t.Fatalf("Base.RetryBase = (%v, %v), want decline", base, ok)
	}
}
