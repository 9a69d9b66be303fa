package jit

import (
	"fmt"
	"testing"
	"time"

	"xfaas/internal/sim"
)

// Optimized reports whether fn is running optimized code at now.
func (r *Runtime) Optimized(fn string, now sim.Time) bool {
	f, ok := r.funcs[fn]
	if !ok {
		return false
	}
	if f.state == stateProfiling && now >= f.readyAt {
		f.state = stateOptimized
	}
	return f.state == stateOptimized
}

// OptimizedCount returns how many known functions are optimized at now.
func (r *Runtime) OptimizedCount(now sim.Time) int {
	n := 0
	for fn := range r.funcs {
		if r.Optimized(fn, now) {
			n++
		}
	}
	return n
}

func TestColdFunctionRunsSlow(t *testing.T) {
	r := NewRuntime()
	if f := r.SpeedFactor("f", 0); f != 3.0 {
		t.Fatalf("cold speed = %v, want slowdown 3", f)
	}
	if r.Optimized("f", 0) {
		t.Fatal("function optimized immediately")
	}
}

func TestSelfProfilingCompletes(t *testing.T) {
	r := NewRuntime()
	r.SpeedFactor("f", 0) // first use starts instrumentation
	ready := sim.Time(ProfileTime + CompileDelay)
	if f := r.SpeedFactor("f", ready-time.Second); f != slowdown {
		t.Fatalf("pre-ready speed = %v", f)
	}
	if f := r.SpeedFactor("f", ready); f != 1 {
		t.Fatalf("post-ready speed = %v, want 1", f)
	}
	if !r.Optimized("f", ready) {
		t.Fatal("not optimized after budget")
	}
	if r.SelfCompilations != 1 {
		t.Fatalf("self compilations = %d", r.SelfCompilations)
	}
}

func TestSeededPrecompilation(t *testing.T) {
	r := NewRuntime()
	hot := []string{"a", "b", "c"}
	r.SwitchVersion(0, true, hot)
	// Functions compile in a queue: a at 3s, b at 6s, c at 9s.
	if r.Optimized("c", 8*time.Second) {
		t.Fatal("c optimized before its queue slot")
	}
	if !r.Optimized("a", 3*time.Second) {
		t.Fatal("a not optimized at its slot")
	}
	if !r.Optimized("c", 9*time.Second) {
		t.Fatal("c not optimized after the queue drains")
	}
	if r.SeededCompilations != 3 {
		t.Fatalf("seeded compilations = %d", r.SeededCompilations)
	}
	// Seeded functions never paid the slowdown after their slot.
	if f := r.SpeedFactor("a", 10*time.Second); f != 1 {
		t.Fatalf("seeded speed = %v", f)
	}
}

func TestSeededRampMuchFasterThanSelf(t *testing.T) {
	hot := make([]string, 50)
	for i := range hot {
		hot[i] = fmt.Sprintf("f%02d", i)
	}
	seeded := NewRuntime()
	seeded.SwitchVersion(0, true, hot)
	selfp := NewRuntime()
	selfp.SwitchVersion(0, false, hot)
	for _, fn := range hot {
		selfp.SpeedFactor(fn, 0) // traffic arrives immediately
	}
	timeToAll := func(r *Runtime) time.Duration {
		for at := time.Duration(0); at < time.Hour; at += 10 * time.Second {
			if r.OptimizedCount(at) == len(hot) {
				return at
			}
		}
		return time.Hour
	}
	tSeeded := timeToAll(seeded)
	tSelf := timeToAll(selfp)
	// Paper: ~3 minutes vs ~21 minutes — a ~7x gap.
	if tSeeded > 4*time.Minute {
		t.Fatalf("seeded ramp = %v, want ≤ 4m", tSeeded)
	}
	if tSelf < 15*time.Minute || tSelf > 25*time.Minute {
		t.Fatalf("self-profiling ramp = %v, want ≈20m", tSelf)
	}
	if float64(tSelf)/float64(tSeeded) < 4 {
		t.Fatalf("ratio = %v, want ≥4x", float64(tSelf)/float64(tSeeded))
	}
}

func TestSwitchVersionResetsState(t *testing.T) {
	r := NewRuntime()
	r.SpeedFactor("f", 0)
	r.SpeedFactor("f", sim.Time(ProfileTime+CompileDelay)) // optimized
	r.SwitchVersion(0, false, nil)
	if r.Optimized("f", sim.Time(ProfileTime+CompileDelay)) {
		t.Fatal("optimization survived a code push")
	}
}

type fakeTarget struct {
	switched bool
	seeded   bool
	at       sim.Time
	engine   *sim.Engine
}

func (f *fakeTarget) SwitchVersion(seeded bool, hot []string) {
	f.switched = true
	f.seeded = seeded
	f.at = f.engine.Now()
}

func TestDistributorPhases(t *testing.T) {
	e := sim.NewEngine()
	d := NewDistributor(e)
	group := make([]Target, 100)
	targets := make([]*fakeTarget, 100)
	for i := range group {
		targets[i] = &fakeTarget{engine: e}
		group[i] = targets[i]
	}
	d.Push([][]Target{group}, []string{"hot"})
	e.RunFor(2 * time.Hour)

	var phase1, phase2, phase3 int
	for _, ft := range targets {
		if !ft.switched {
			t.Fatal("target missed the push")
		}
		switch {
		case ft.at == 0 && !ft.seeded:
			phase1++
		case ft.at == sim.Time(phase1Dur) && !ft.seeded:
			phase2++
		case ft.at == sim.Time(phase1Dur+phase2Dur) && ft.seeded:
			phase3++
		default:
			t.Fatalf("target switched at unexpected time %v seeded=%v", ft.at, ft.seeded)
		}
	}
	if phase1 != 1 { // 0.2% of 100, min 1
		t.Fatalf("phase1 = %d", phase1)
	}
	if phase2 != 2 { // 2% of 100
		t.Fatalf("phase2 = %d", phase2)
	}
	if phase3 != 97 {
		t.Fatalf("phase3 = %d", phase3)
	}
	if d.Pushes != 1 {
		t.Fatalf("pushes = %d", d.Pushes)
	}
}

func TestDistributorTinyGroup(t *testing.T) {
	e := sim.NewEngine()
	d := NewDistributor(e)
	ft := &fakeTarget{engine: e}
	d.Push([][]Target{{ft}}, nil)
	e.RunFor(time.Hour)
	if !ft.switched {
		t.Fatal("single-worker group missed the push")
	}
}

func TestFracCount(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{100, 0.02, 2},
		{100, 0.002, 1},
		{100, 0, 0},
		{3, 0.5, 2},
		{1, 1, 1},
		{10, 2, 10},
	}
	for _, c := range cases {
		if got := fracCount(c.n, c.frac); got != c.want {
			t.Fatalf("fracCount(%d, %v) = %d, want %d", c.n, c.frac, got, c.want)
		}
	}
}

func TestDistributorSkipsEmptyGroup(t *testing.T) {
	e := sim.NewEngine()
	d := NewDistributor(e)
	ft := &fakeTarget{engine: e}
	d.Push([][]Target{{}, {ft}}, nil)
	e.RunFor(time.Hour)
	if !ft.switched {
		t.Fatal("non-empty group missed the push")
	}
}

func TestPrewarm(t *testing.T) {
	r := NewRuntime()
	r.Prewarm([]string{"a", "b"})
	if !r.Optimized("a", 0) || !r.Optimized("b", 0) {
		t.Fatal("prewarmed functions not optimized")
	}
	if f := r.SpeedFactor("a", 0); f != 1 {
		t.Fatalf("prewarmed speed = %v", f)
	}
	// Unknown functions still pay the cold path.
	if f := r.SpeedFactor("c", 0); f != slowdown {
		t.Fatalf("cold speed = %v", f)
	}
}
