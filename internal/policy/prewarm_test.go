package policy

import (
	"fmt"
	"testing"

	"xfaas/internal/config"
	"xfaas/internal/function"
)

func admitN(p *Prewarm, name string, n int) {
	spec := &function.Spec{Name: name}
	for i := 0; i < n; i++ {
		p.OnAdmit(&function.Call{Spec: spec})
	}
}

// TestPrewarmBoostsPollOnRisingForecast: under a steadily rising arrival
// rate the trend turns positive, the forecast exceeds the level, and the
// poll budget multiplier climbs above 1 — capped at MaxBoost.
func TestPrewarmBoostsPollOnRisingForecast(t *testing.T) {
	p := &Prewarm{
		alpha: 0.5, beta: 0.5, horizonTicks: 5, maxBoost: 2.5,
		topK: 4, intervalTicks: 1000, // no pre-warm pass in this test
	}
	tick := 0
	h := &fakeHost{}
	h.pollHook = func(float64) { admitN(p, "ramp", 10+10*tick) } // arrivals ramp hard
	p.Attach(h)
	for tick = 0; tick < 12; tick++ {
		p.Tick()
	}
	if h.mults[0] != 1 {
		t.Fatalf("first tick boosted with no history: mult = %v", h.mults[0])
	}
	peak := 0.0
	for _, m := range h.mults {
		if m > 2.5 {
			t.Fatalf("multiplier %v exceeded MaxBoost 2.5", m)
		}
		if m > peak {
			peak = m
		}
	}
	if peak <= 1 {
		t.Fatalf("rising arrivals never boosted the poll budget: %v", h.mults)
	}
	// Early in a hard ramp the forecast dwarfs the level: the cap binds.
	if peak != 2.5 {
		t.Fatalf("steep ramp peaked at %v, never saturating MaxBoost: %v", peak, h.mults)
	}
}

// TestPrewarmStaysFlatOnSteadyRate: constant arrivals mean no trend, no
// forecast excess, multiplier pinned at 1 — the policy must not inflate
// the poll budget without a predicted spike.
func TestPrewarmStaysFlatOnSteadyRate(t *testing.T) {
	p := &Prewarm{alpha: 0.3, beta: 0.1, horizonTicks: 5, maxBoost: 4, topK: 4, intervalTicks: 1000}
	h := &fakeHost{}
	h.pollHook = func(float64) { admitN(p, "steady", 10) }
	p.Attach(h)
	for i := 0; i < 20; i++ {
		p.Tick()
	}
	for i, m := range h.mults {
		if m != 1 {
			t.Fatalf("steady rate boosted the budget at tick %d: mult = %v", i, m)
		}
	}
}

// TestPrewarmWarmsHottestFunctions: every IntervalTicks the policy
// pre-warms the TopK hottest functions by smoothed arrival rate.
func TestPrewarmWarmsHottestFunctions(t *testing.T) {
	p := &Prewarm{alpha: 0.5, beta: 0.1, horizonTicks: 5, maxBoost: 4, topK: 2, intervalTicks: 3}
	h := &fakeHost{}
	h.pollHook = func(float64) {
		admitN(p, "hot", 50)
		admitN(p, "warm", 5)
		admitN(p, "cool", 1)
	}
	p.Attach(h)
	for i := 0; i < 6; i++ {
		p.Tick()
	}
	warms := 0
	for _, call := range h.calls {
		if call == "prewarm" {
			warms++
		}
	}
	if warms != 2 {
		t.Fatalf("6 ticks at interval 3 ran %d pre-warm passes, want 2", warms)
	}
	if len(h.warmed) != 4 {
		t.Fatalf("warmed %v, want 2 functions per pass", h.warmed)
	}
	for i := 0; i < len(h.warmed); i += 2 {
		if h.warmed[i] != "hot" || h.warmed[i+1] != "warm" {
			t.Fatalf("pre-warm set %v, want [hot warm] (hottest two)", h.warmed[i:i+2])
		}
	}
}

// TestSPESPrewarmScalesWithPerf: the SPES pre-warm set size is
// ⌈Perf × TopK⌉ — zero at the resource end, full at the performance end.
func TestSPESPrewarmScalesWithPerf(t *testing.T) {
	runSPES := func(perf float64) []string {
		p := New(config.PolicySPES).(*SPES)
		p.perf, p.topK, p.intervalTicks = perf, 4, 1
		h := &fakeHost{}
		p.Attach(h)
		for i := 0; i < 6; i++ {
			p.OnAdmit(&function.Call{Spec: &function.Spec{Name: fmt.Sprintf("fn-%d", i)}})
		}
		p.Tick()
		return h.warmed
	}
	if warmed := runSPES(0); len(warmed) != 0 {
		t.Fatalf("Perf=0 pre-warmed %v, want none", warmed)
	}
	if warmed := runSPES(0.5); len(warmed) != 2 {
		t.Fatalf("Perf=0.5 pre-warmed %v, want 2 of TopK=4", warmed)
	}
	if warmed := runSPES(1); len(warmed) != 4 {
		t.Fatalf("Perf=1 pre-warmed %v, want all 4", warmed)
	}
}

// TestSPESUngatesWhenPressureClears: the opportunistic gate closes under
// pressure and reopens when spare capacity recovers — one transition
// each way, not a call per tick.
func TestSPESUngatesWhenPressureClears(t *testing.T) {
	p := New(config.PolicySPES).(*SPES)
	p.perf = 0 // reserve = spareTarget = 0.3
	h := &fakeHost{util: 0.9}
	p.Attach(h)
	p.Tick()
	p.Tick() // still under pressure: no second gate call
	h.util = 0.1
	p.Tick() // spare 0.9 > reserve: ungate
	gates := 0
	for _, call := range h.calls {
		if call == "gate" {
			gates++
		}
	}
	if gates != 2 {
		t.Fatalf("gate transitions = %d, want 2 (close once, reopen once): %v", gates, h.calls)
	}
}

// TestHoltWintersForecastEmpty: with no observations the forecast is 0
// whatever the horizon.
func TestHoltWintersForecastEmpty(t *testing.T) {
	var f HoltWinters
	if got := f.Forecast(10); got != 0 {
		t.Fatalf("empty forecast = %v, want 0", got)
	}
}
