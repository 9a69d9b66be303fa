package worker

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"xfaas/internal/downstream"
	"xfaas/internal/function"
	"xfaas/internal/jit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

func testSpec(name string) *function.Spec {
	return &function.Spec{
		Name:      name,
		Namespace: "ns",
		Deadline:  time.Hour,
		Retry:     function.DefaultRetry,
		Resources: function.ResourceModel{CodeMB: 10, JITCodeMB: 5},
	}
}

var idSeq uint64

func testCall(s *function.Spec, cpuM, memMB, execSecs float64) *function.Call {
	idSeq++
	return &function.Call{ID: idSeq, Spec: s, CPUWorkM: cpuM, MemMB: memMB, ExecSecs: execSecs}
}

func newWorker(e *sim.Engine, p Params) *Worker {
	return New(ID{Region: 0, Index: 0}, e, p, rng.New(1), nil)
}

func TestExecuteCompletes(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	c := testCall(testSpec("f"), 100, 50, 1.0)
	var gotErr error
	doneCalled := false
	if !w.TryExecute(c, func(_ *function.Call, err error) { doneCalled = true; gotErr = err }) {
		t.Fatal("idle worker rejected call")
	}
	if w.Running() != 1 {
		t.Fatalf("running = %d", w.Running())
	}
	e.RunFor(10 * time.Second)
	if !doneCalled || gotErr != nil {
		t.Fatalf("done=%v err=%v", doneCalled, gotErr)
	}
	if w.Running() != 0 {
		t.Fatal("call still running after completion")
	}
	if w.Executions.Value() != 1 {
		t.Fatalf("executions = %v", w.Executions.Value())
	}
	// JIT slowdown: first call of a cold function runs 3x slower.
	wallTime := c.ExecEndAt - c.ExecStartAt
	if wallTime != 3*time.Second {
		t.Fatalf("first-call duration = %v, want 3s (3x slowdown on 1s call)", wallTime)
	}
}

func TestConcurrencyCap(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.MaxConcurrency = 2
	w := newWorker(e, p)
	s := testSpec("f")
	nop := func(*function.Call, error) {}
	if !w.TryExecute(testCall(s, 10, 1, 10), nop) || !w.TryExecute(testCall(s, 10, 1, 10), nop) {
		t.Fatal("under-cap rejected")
	}
	if w.TryExecute(testCall(s, 10, 1, 10), nop) {
		t.Fatal("over-cap accepted")
	}
	if w.Rejections.Value() != 1 {
		t.Fatalf("rejections = %v", w.Rejections.Value())
	}
}

func TestCPUAdmission(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.CPUMIPS = 1000
	w := newWorker(e, p)
	s := testSpec("f")
	nop := func(*function.Call, error) {}
	// Each call needs 600 MIPS-rate (600M instructions over 1s).
	if !w.TryExecute(testCall(s, 600, 1, 1), nop) {
		t.Fatal("first call rejected")
	}
	if w.TryExecute(testCall(s, 600, 1, 1), nop) {
		t.Fatal("CPU-oversubscribing call accepted")
	}
	if w.CPUUtilization() < 0.59 || w.CPUUtilization() > 0.61 {
		t.Fatalf("utilization = %v", w.CPUUtilization())
	}
}

func TestMemoryAdmission(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.MemoryMB = RuntimeBaseMB + 9_000
	w := newWorker(e, p)
	s := testSpec("big")
	nop := func(*function.Call, error) {}
	if !w.TryExecute(testCall(s, 10, 8_000, 10), nop) {
		t.Fatal("fitting call rejected")
	}
	if w.TryExecute(testCall(s, 10, 8_000, 10), nop) {
		t.Fatal("memory-oversubscribing call accepted")
	}
}

// TestCanAcceptIndependentOfMapOrder puts a call exactly at the edge of
// what evicting idle code could free: the idle total then decides it, and
// float addition is not associative, so a total summed in Go map order
// would admit the same worker state on one call and reject it on another.
func TestCanAcceptIndependentOfMapOrder(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.MemoryMB = 6171.78780249755
	w := newWorker(e, p)
	nop := func(*function.Call, error) {}
	for i, mb := range []float64{15.69476037207288, 3.7430985005708237, 0.5226754019330292} {
		s := &function.Spec{Name: fmt.Sprintf("idle%d", i), Resources: function.ResourceModel{CodeMB: mb}}
		if !w.TryExecute(testCall(s, 1, 1, 0.001), nop) {
			t.Fatalf("loading call %d rejected", i)
		}
		e.RunFor(time.Second)
	}
	s := &function.Spec{Name: "edge", Resources: function.ResourceModel{CodeMB: 8}}
	c := testCall(s, 1, 19.787802497550743, 1)
	first := w.CanAccept(c)
	for i := 2; i <= 200; i++ {
		if got := w.CanAccept(c); got != first {
			t.Fatalf("admission flipped from %v to %v on call %d", first, got, i)
		}
	}
}

func TestCodeCacheLRUEviction(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.MemoryMB = RuntimeBaseMB + 200
	w := newWorker(e, p)
	nop := func(*function.Call, error) {}
	// Each function's code is 15MB (10+5); ~13 fit in the 200MB budget.
	for i := 0; i < 30; i++ {
		s := testSpec(fmt.Sprintf("f%02d", i))
		c := testCall(s, 1, 1, 0.001)
		if !w.TryExecute(c, nop) {
			t.Fatalf("call %d rejected", i)
		}
		e.RunFor(time.Second) // finish before the next, so code is idle
	}
	if w.CodeEvictions.Value() == 0 {
		t.Fatal("no LRU evictions under memory pressure")
	}
	if w.MemUsedMB() > p.MemoryMB {
		t.Fatalf("memory overcommitted: %v > %v", w.MemUsedMB(), p.MemoryMB)
	}
	if _, _, code, idle := w.AccountingDrift(); math.Abs(code) > 1e-9 || math.Abs(idle) > 1e-9 {
		t.Fatalf("code books drifted across evictions: code=%v idle=%v", code, idle)
	}
}

func TestDistinctFuncsSince(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	nop := func(*function.Call, error) {}
	w.TryExecute(testCall(testSpec("a"), 1, 1, 0.01), nop)
	e.RunFor(2 * time.Hour)
	w.TryExecute(testCall(testSpec("b"), 1, 1, 0.01), nop)
	w.TryExecute(testCall(testSpec("c"), 1, 1, 0.01), nop)
	e.RunFor(time.Second)
	if n := w.DistinctFuncsSince(e.Now() - time.Hour); n != 2 {
		t.Fatalf("distinct in last hour = %d, want 2", n)
	}
	if n := w.DistinctFuncsSince(0); n != 3 {
		t.Fatalf("distinct ever = %d, want 3", n)
	}
}

func TestJITSecondCallFasterAfterOptimization(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	w := newWorker(e, p)
	s := testSpec("f")
	nop := func(*function.Call, error) {}
	w.TryExecute(testCall(s, 10, 1, 1), nop)
	// Wait past the self-profiling budget.
	e.RunFor(jit.ProfileTime + jit.CompileDelay + time.Minute)
	c := testCall(s, 10, 1, 1)
	w.TryExecute(c, nop)
	e.RunFor(time.Minute)
	if got := c.ExecEndAt - c.ExecStartAt; got != time.Second {
		t.Fatalf("optimized duration = %v, want 1s", got)
	}
}

func TestDownstreamBackpressureFailsCall(t *testing.T) {
	e := sim.NewEngine()
	reg := downstream.NewRegistry()
	svc := downstream.NewService(e, rng.New(9), "tao", 1)
	reg.Add(svc)
	w := New(ID{}, e, DefaultParams(), rng.New(2), reg)
	s := testSpec("f")
	s.Downstream = "tao"
	// Saturate the service so Overload >> 1.
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 100; i++ {
			svc.Invoke()
		}
		e.RunFor(time.Second)
	}
	var failures, successes int
	for i := 0; i < 50; i++ {
		c := testCall(s, 10, 1, 1)
		w.TryExecute(c, func(_ *function.Call, err error) {
			if errors.Is(err, downstream.ErrBackpressure) {
				failures++
			} else if err == nil {
				successes++
			}
		})
		e.RunFor(time.Second)
	}
	e.RunFor(time.Minute)
	if failures == 0 {
		t.Fatal("no back-pressure failures under overload")
	}
	if w.Backpressured.Value() == 0 {
		t.Fatal("worker did not record back-pressure")
	}
}

func TestDownstreamRetryAmplification(t *testing.T) {
	e := sim.NewEngine()
	reg := downstream.NewRegistry()
	svc := downstream.NewService(e, rng.New(5), "kvstore", 1e9)
	svc.SetBugRate(1.0) // every request fails
	reg.Add(svc)
	w := New(ID{}, e, DefaultParams(), rng.New(3), reg)
	s := testSpec("f")
	s.Downstream = "kvstore"
	c := testCall(s, 10, 1, 1)
	var gotErr error
	w.TryExecute(c, func(_ *function.Call, err error) { gotErr = err })
	e.RunFor(time.Minute)
	if !errors.Is(gotErr, downstream.ErrFailure) {
		t.Fatalf("err = %v", gotErr)
	}
	// 1 original + 2 retries hit the service: amplification.
	total := svc.Failures.Value()
	if total != 3 {
		t.Fatalf("downstream saw %v requests, want 3 (retry amplification)", total)
	}
	if w.Failures.Value() != 1 {
		t.Fatalf("failures = %v", w.Failures.Value())
	}
}

func TestFailedCallReleasesQuickly(t *testing.T) {
	e := sim.NewEngine()
	reg := downstream.NewRegistry()
	svc := downstream.NewService(e, rng.New(5), "kvstore", 1e9)
	svc.SetBugRate(1.0)
	reg.Add(svc)
	w := New(ID{}, e, DefaultParams(), rng.New(3), reg)
	s := testSpec("f")
	s.Downstream = "kvstore"
	c := testCall(s, 10, 1, 100) // nominally 100s
	w.TryExecute(c, func(*function.Call, error) {})
	e.RunFor(time.Minute)
	if w.Running() != 0 {
		t.Fatal("failed call still occupying worker after a minute")
	}
}

func TestSwitchVersionTarget(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	w.SwitchVersion(true, []string{"hot"})
	if w.Runtime.SeededCompilations != 1 {
		t.Fatalf("seeded compilations = %d, want the one hot function", w.Runtime.SeededCompilations)
	}
}

func TestLoadMetric(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.CPUMIPS = 1000
	w := newWorker(e, p)
	if w.Load() != 0 {
		t.Fatalf("idle load = %v", w.Load())
	}
	w.TryExecute(testCall(testSpec("f"), 500, 1, 1), func(*function.Call, error) {})
	if w.Load() != 0.5 {
		t.Fatalf("load = %v, want 0.5", w.Load())
	}
}

func TestWorkerFailKillsInflight(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	s := testSpec("f")
	var errs []error
	for i := 0; i < 5; i++ {
		w.TryExecute(testCall(s, 10, 1, 100), func(_ *function.Call, err error) { errs = append(errs, err) })
	}
	e.RunFor(time.Second)
	w.Fail()
	if len(errs) != 5 {
		t.Fatalf("callbacks = %d, want 5 on failure", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrWorkerFailed) {
			t.Fatalf("err = %v", err)
		}
	}
	if w.Running() != 0 || w.Load() != 0 {
		t.Fatalf("failed worker still accounting: running=%d load=%v", w.Running(), w.Load())
	}
	if w.TryExecute(testCall(s, 10, 1, 1), func(*function.Call, error) {}) {
		t.Fatal("failed worker accepted work")
	}
	// The stopped timers must not fire later.
	before := w.Executions.Value()
	e.RunFor(time.Hour)
	if w.Executions.Value() != before {
		t.Fatal("dead call completed after worker failure")
	}
}

func TestWorkerRecoverColdRuntime(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	w := newWorker(e, p)
	s := testSpec("f")
	// Warm the JIT.
	w.TryExecute(testCall(s, 10, 1, 1), func(*function.Call, error) {})
	e.RunFor(jit.ProfileTime + jit.CompileDelay + time.Minute)
	if w.Runtime.SpeedFactor("f", e.Now()) != 1 {
		t.Fatal("function should be optimized before failure")
	}
	w.Fail()
	w.Recover()
	if w.Runtime.SpeedFactor("f", e.Now()) == 1 {
		t.Fatal("JIT state survived a machine failure")
	}
	if !w.TryExecute(testCall(s, 10, 1, 1), func(*function.Call, error) {}) {
		t.Fatal("recovered worker rejected work")
	}
}

func TestWorkerFailIdempotent(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	w.Fail()
	w.Fail() // no panic, no double effects
	if !w.Failed() {
		t.Fatal("worker should be failed")
	}
}

func TestWorkerDoubleFailDeliversExactlyOnce(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	s := testSpec("f")
	counts := make(map[uint64]int)
	for i := 0; i < 5; i++ {
		c := testCall(s, 10, 1, 100)
		w.TryExecute(c, func(_ *function.Call, err error) {
			if !errors.Is(err, ErrWorkerFailed) {
				t.Errorf("call %d: err = %v", c.ID, err)
			}
			counts[c.ID]++
		})
	}
	e.RunFor(time.Second)
	w.Fail()
	w.Fail() // second Fail must not re-deliver
	if len(counts) != 5 {
		t.Fatalf("callbacks reached %d calls, want 5", len(counts))
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("call %d completed %d times, want exactly once", id, n)
		}
	}
	e.RunFor(time.Hour) // stopped execution timers must not re-fire
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("call %d completed %d times after idle hour", id, n)
		}
	}
}

func TestFailSilentDropsInflightWithoutCallbacks(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	s := testSpec("f")
	callbacks := 0
	for i := 0; i < 4; i++ {
		w.TryExecute(testCall(s, 10, 1, 100), func(*function.Call, error) { callbacks++ })
	}
	e.RunFor(time.Second)
	w.FailSilent()
	if callbacks != 0 {
		t.Fatalf("silent failure delivered %d callbacks", callbacks)
	}
	if w.Running() != 0 || w.Load() != 0 {
		t.Fatalf("accounting survives silent failure: running=%d load=%v", w.Running(), w.Load())
	}
	if ok, _ := w.Probe(); ok {
		t.Fatal("silently failed worker answered a probe")
	}
	if w.TryExecute(testCall(s, 10, 1, 1), func(*function.Call, error) {}) {
		t.Fatal("silently failed worker accepted work")
	}
	e.RunFor(time.Hour)
	if callbacks != 0 {
		t.Fatalf("dropped calls completed later: %d callbacks", callbacks)
	}
}

func TestFailReentrantCallbackSurvivesTeardown(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	s := testSpec("f")
	// The first victim's completion callback recovers the worker and
	// starts a new call — teardown must already be finished so the new
	// call's accounting is not wiped.
	restarted := false
	w.TryExecute(testCall(s, 10, 1, 100), func(*function.Call, error) {
		w.Recover()
		restarted = w.TryExecute(testCall(s, 10, 1, 0.1), func(*function.Call, error) {})
	})
	later := 0
	w.TryExecute(testCall(s, 10, 1, 100), func(*function.Call, error) { later++ })
	e.RunFor(time.Second)
	w.Fail()
	if !restarted {
		t.Fatal("re-entrant TryExecute rejected after Recover")
	}
	if later != 1 {
		t.Fatalf("second victim delivered %d times", later)
	}
	if w.Failed() || w.Running() != 1 {
		t.Fatalf("post-fail state: failed=%v running=%d, want recovered with 1 running", w.Failed(), w.Running())
	}
	done := w.Executions.Value()
	e.RunFor(time.Minute)
	if w.Executions.Value() != done+1 {
		t.Fatal("re-entrant call never completed")
	}
}

func TestSlowdownStretchesExecution(t *testing.T) {
	run := func(slowdown float64) sim.Time {
		e := sim.NewEngine()
		w := newWorker(e, DefaultParams())
		w.SetSlowdown(slowdown)
		var at sim.Time
		w.TryExecute(testCall(testSpec("f"), 10, 1, 1), func(*function.Call, error) { at = e.Now() })
		e.RunFor(time.Hour)
		return at
	}
	base := run(1)
	gray := run(4)
	if base <= 0 || gray != 4*base {
		t.Fatalf("durations %v and %v, want exactly 4x", base, gray)
	}
}

func TestSlowdownClampAndProbe(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	if ok, slow := w.Probe(); !ok || slow != 1 {
		t.Fatalf("healthy probe = (%v, %v)", ok, slow)
	}
	w.SetSlowdown(0.25) // speedups clamp to nominal
	if w.slowdown != 1 {
		t.Fatalf("slowdown = %v after clamp", w.slowdown)
	}
	w.SetSlowdown(8)
	if ok, slow := w.Probe(); !ok || slow != 8 {
		t.Fatalf("gray probe = (%v, %v)", ok, slow)
	}
	w.Fail()
	if ok, _ := w.Probe(); ok {
		t.Fatal("failed worker answered probe")
	}
	w.Recover() // recovery resets the gray degradation too
	if ok, slow := w.Probe(); !ok || slow != 1 {
		t.Fatalf("recovered probe = (%v, %v)", ok, slow)
	}
}
