package congestion

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func TestAIMDDecreaseOnBackpressure(t *testing.T) {
	p := DefaultAIMDParams()
	a := NewAIMD(p, 1000)
	now := sim.Time(30 * time.Second)
	for i := 0; i < 6000; i++ {
		a.OnBackpressure(now)
	}
	got := a.Tick(now)
	if math.Abs(got-500) > 1e-9 {
		t.Fatalf("limit after decrease = %v, want 500", got)
	}
	if a.Decreases != 1 {
		t.Fatalf("decreases = %d", a.Decreases)
	}
}

func TestAIMDIncreaseWhenClean(t *testing.T) {
	p := DefaultAIMDParams()
	a := NewAIMD(p, 100)
	got := a.Tick(time.Minute)
	if math.Abs(got-150) > 1e-9 {
		t.Fatalf("limit after clean window = %v, want 150", got)
	}
}

func TestAIMDBelowThresholdNoDecrease(t *testing.T) {
	p := DefaultAIMDParams()
	a := NewAIMD(p, 100)
	now := sim.Time(30 * time.Second)
	for i := 0; i < 4999; i++ { // below the 5000/min threshold
		a.OnBackpressure(now)
	}
	if got := a.Tick(now); got <= 100 {
		t.Fatalf("limit = %v, want additive increase", got)
	}
}

// TestAIMDFloorAndCeiling: overload cuts the limit down to AIMDFloor and
// no further; clean windows then add I each, with no ceiling above.
func TestAIMDFloorAndCeiling(t *testing.T) {
	p := DefaultAIMDParams()
	a := NewAIMD(p, 100)
	now := sim.Time(time.Second)
	for w := 0; w < 20; w++ {
		for i := 0; i < 6000; i++ {
			a.OnBackpressure(now)
		}
		a.Tick(now)
		now += time.Minute
	}
	if a.Limit() != AIMDFloor {
		t.Fatalf("limit = %v, want floor %v", a.Limit(), AIMDFloor)
	}
	for w := 0; w < 20; w++ {
		a.Tick(now)
		now += time.Minute
	}
	if want := AIMDFloor + 20*p.Increase; a.Limit() != want {
		t.Fatalf("limit = %v, want %v after 20 clean windows", a.Limit(), want)
	}
}

// Property: the AIMD limit never drops below the floor and every
// adjustment is either ×M or +I.
func TestAIMDBoundsProperty(t *testing.T) {
	f := func(pattern []bool) bool {
		p := DefaultAIMDParams()
		a := NewAIMD(p, 500)
		now := sim.Time(0)
		for _, overload := range pattern {
			now += time.Minute
			prev := a.Limit()
			if overload {
				for i := 0; i < 6000; i++ {
					a.OnBackpressure(now)
				}
			}
			got := a.Tick(now)
			if got < AIMDFloor {
				return false
			}
			wantDec := math.Max(prev*p.DecreaseFactor, AIMDFloor)
			wantInc := prev + p.Increase
			if overload && math.Abs(got-wantDec) > 1e-9 {
				return false
			}
			if !overload && math.Abs(got-wantInc) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowStartThresholdFree(t *testing.T) {
	s := NewSlowStart()
	// Below T=100 per window there is no constraint.
	for i := 0; i < 100; i++ {
		if !s.Allow(0) {
			t.Fatalf("call %d denied under threshold", i)
		}
	}
	if s.Allow(0) {
		t.Fatal("call above cap admitted in first window")
	}
}

func TestSlowStartGrowthCap(t *testing.T) {
	s := NewSlowStart()
	now := sim.Time(0)
	prevAdmitted := 0
	for w := 0; w < 8; w++ {
		admitted := 0
		for i := 0; i < 100000; i++ {
			if s.Allow(now) {
				admitted++
			}
		}
		if w > 0 {
			maxGrow := int(float64(prevAdmitted)*1.2) + 1
			if admitted > maxGrow {
				t.Fatalf("window %d admitted %d > %d (20%% growth cap)", w, admitted, maxGrow)
			}
			if admitted < prevAdmitted {
				t.Fatalf("window %d admitted %d < previous %d", w, admitted, prevAdmitted)
			}
		}
		prevAdmitted = admitted
		now += time.Minute
	}
	// Growth must actually compound: 100 * 1.2^7 ≈ 358.
	if prevAdmitted < 300 {
		t.Fatalf("slow start stuck at %d after 8 windows", prevAdmitted)
	}
}

func TestSlowStartResetsAfterGap(t *testing.T) {
	s := NewSlowStart()
	now := sim.Time(0)
	for w := 0; w < 10; w++ {
		for i := 0; i < 100000; i++ {
			s.Allow(now)
		}
		now += time.Minute
	}
	// Long silence: ramp restarts from the threshold.
	now += time.Hour
	if got := s.Cap(now); got != 100 {
		t.Fatalf("cap after gap = %v, want threshold 100", got)
	}
}

func TestConcurrencyLimiter(t *testing.T) {
	c := NewConcurrency(2)
	if !c.Acquire() || !c.Acquire() {
		t.Fatal("under-limit acquire failed")
	}
	if c.Acquire() {
		t.Fatal("over-limit acquire succeeded")
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d", c.Rejected)
	}
	c.Release()
	if !c.Acquire() {
		t.Fatal("acquire after release failed")
	}
	if c.Running() != 2 {
		t.Fatalf("running = %d", c.Running())
	}
}

func TestConcurrencyUnlimited(t *testing.T) {
	c := NewConcurrency(0)
	for i := 0; i < 10000; i++ {
		if !c.Acquire() {
			t.Fatal("unlimited concurrency denied")
		}
	}
}

func TestConcurrencyReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire should panic")
		}
	}()
	NewConcurrency(1).Release()
}

func TestManagerDispatchFlow(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(e, DefaultAIMDParams(), DefaultSlowStartParams())
	m.InitialLimit = 5 // tiny AIMD limit
	spec := &function.Spec{Name: "f", Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry}
	admitted := 0
	for i := 0; i < 100; i++ {
		if m.AllowDispatch(spec) {
			admitted++
			m.OnComplete(spec)
		}
	}
	if admitted == 0 || admitted == 100 {
		t.Fatalf("admitted = %d, want partial admission under AIMD limit", admitted)
	}
	if m.DispatchDenied.Value() == 0 {
		t.Fatal("no denials recorded")
	}
}

func TestManagerAIMDRecovers(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(e, DefaultAIMDParams(), DefaultSlowStartParams())
	m.InitialLimit = 1000
	spec := &function.Spec{Name: "f", Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry}
	ctl := m.Control(spec)
	// Storm of exceptions spread across each window → limit collapses.
	for w := 0; w < 5; w++ {
		for s := 0; s < 60; s++ {
			for i := 0; i < 200; i++ {
				m.OnBackpressure(spec)
			}
			e.RunFor(time.Second)
		}
	}
	low := ctl.AIMD.Limit()
	if low > 100 {
		t.Fatalf("limit after storm = %v, want collapsed", low)
	}
	// Clean windows → additive recovery.
	e.RunFor(30 * time.Minute)
	if ctl.AIMD.Limit() < low+1000 {
		t.Fatalf("limit did not recover: %v", ctl.AIMD.Limit())
	}
}

func TestManagerConcurrencyIntegration(t *testing.T) {
	e := sim.NewEngine()
	m := NewManager(e, DefaultAIMDParams(), DefaultSlowStartParams())
	spec := &function.Spec{Name: "g", Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry, ConcurrencyLimit: 3}
	got := 0
	for i := 0; i < 10; i++ {
		if m.AllowDispatch(spec) {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("concurrent dispatches = %d, want 3 (limit)", got)
	}
	m.OnComplete(spec)
	if !m.AllowDispatch(spec) {
		t.Fatal("slot freed but dispatch denied")
	}
}
