package slo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

func sec(n int) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

// TestMeterClosureExact drives a meter through overlapping executions and
// checks the accounting identity busy + idle == capacity × elapsed closes
// within the float tolerance at every probe point.
func TestMeterClosureExact(t *testing.T) {
	a := NewAccountant(stats.NewRegistry(), []string{"r0"}, 1000, time.Minute, 0)
	m := a.NewMeter(0, 4000, 1000, 0) // 4 cores
	if m.Capacity() != 4 {
		t.Fatalf("capacity = %v, want 4", m.Capacity())
	}
	// The sim clock is monotone, so probes interleave with the hooks in
	// time order (a closure probe also advances the meter).
	closed := func(now sim.Time) {
		t.Helper()
		capSecs := m.Capacity() * now.Seconds()
		if err := m.ClosureError(now); err > ClosureTolerance(capSecs) {
			t.Errorf("closure error %v at %v exceeds tolerance %v", err, now, ClosureTolerance(capSecs))
		}
	}
	m.ExecStart(sec(10), function.CritHigh, 1000)
	m.ExecStart(sec(12), function.CritNormal, 2000) // concurrent
	closed(sec(15))
	m.ExecEnd(sec(25), function.CritHigh, 1000)
	m.ExecEnd(sec(40), function.CritNormal, 2000)
	closed(sec(60))
	closed(sec(3600))
	// busy: 15s × 1 core (high) + 28s × 2 cores (normal) = 71 core-seconds.
	s := a.Snapshot(sec(3600))
	if s.BusyCoreSecs != 71 {
		t.Errorf("busy = %v core-seconds, want 71", s.BusyCoreSecs)
	}
	if want := 4*3600.0 - 71; s.IdleCoreSecs != want {
		t.Errorf("idle = %v core-seconds, want %v", s.IdleCoreSecs, want)
	}
	if want := 71 / (4 * 3600.0); s.Utilization != want {
		t.Errorf("utilization = %v, want %v", s.Utilization, want)
	}
}

// TestWasteAndCostAttribution checks per-tenant cost: acked execution and
// queue time via OnExecuted, retry waste via the meter hook.
func TestWasteAndCostAttribution(t *testing.T) {
	a := NewAccountant(stats.NewRegistry(), []string{"r0"}, 1000, time.Minute, 0)
	m := a.NewMeter(0, 2000, 1000, 0)
	c := &function.Call{
		Spec:       &function.Spec{Team: "vision"},
		CPUWorkM:   1500,
		QueuedAt:   sec(2),
		DispatchAt: sec(4),
	}
	a.OnExecuted(c)
	m.Waste("vision", 1000, 5*time.Second)
	s := a.Snapshot(sec(10))
	if len(s.Tenants) != 1 {
		t.Fatalf("tenants = %d, want 1", len(s.Tenants))
	}
	got := s.Tenants[0]
	if got.Team != "vision" || got.ExecCoreSecs != 1.5 || got.QueueSecs != 2 || got.RetryWasteCoreSec != 5 {
		t.Errorf("tenant cost = %+v, want vision exec=1.5 queue=2 waste=5", got)
	}
}

// TestBurnRateFireAndClear walks the SLO engine through a burn episode:
// dead-letters push the normal class's burn over threshold in both
// windows (fire), then the fast window ages the bad observations out
// (clear). Both transitions must land in the control log exactly once.
func TestBurnRateFireAndClear(t *testing.T) {
	var events []string
	cfg := config.DefaultObserve().EnableAll()
	e := NewEngine(stats.NewRegistry(), cfg, func(kind, detail string) {
		events = append(events, kind+" "+detail)
	})

	good := &function.Call{Spec: &function.Spec{Criticality: function.CritHigh}, SubmitTime: sec(49)}
	e.Observe(good, sec(50)) // 1s e2e ≤ CritHighLatency → good
	dead := &function.Call{Spec: &function.Spec{Criticality: function.CritNormal}}
	e.ObserveDeadLetter(dead, sec(50))

	e.Eval(sec(60))
	if len(events) != 1 || !strings.HasPrefix(events[0], "slo.fire ") || !strings.Contains(events[0], "crit=normal") {
		t.Fatalf("after burn eval: events = %q, want one slo.fire for crit=normal", events)
	}
	s := e.Snapshot(sec(60))
	for _, cs := range s.Classes {
		switch cs.Crit {
		case "normal":
			if !cs.Firing || cs.Fires != 1 || cs.Bad != 1 {
				t.Errorf("normal class = %+v, want firing with 1 fire and 1 bad", cs)
			}
			// badFrac 1 over budget 0.05 → burn 20 in both windows.
			if cs.BurnFast != 20 || cs.BurnSlow != 20 {
				t.Errorf("normal burn = %v/%v, want 20/20", cs.BurnFast, cs.BurnSlow)
			}
		case "high":
			if cs.Firing || cs.Good != 1 || cs.BurnFast != 0 {
				t.Errorf("high class = %+v, want healthy with 1 good", cs)
			}
		}
	}

	// 400s: the fast window (300s) no longer covers the dead-letter, so
	// its burn drops to zero and the alert clears.
	e.Eval(sec(400))
	if len(events) != 2 || !strings.HasPrefix(events[1], "slo.clear ") || !strings.Contains(events[1], "crit=normal") {
		t.Fatalf("after recovery eval: events = %q, want a single slo.clear for crit=normal", events)
	}
	// Re-evaluating without new observations must not re-transition.
	e.Eval(sec(430))
	if len(events) != 2 {
		t.Fatalf("idle eval re-emitted transitions: %q", events)
	}
}

// TestNilSafety checks every hook is a no-op on nil receivers — the
// disabled path that lets core wire accounting unconditionally.
func TestNilSafety(t *testing.T) {
	var m *WorkerMeter
	m.ExecStart(0, function.CritHigh, 100)
	m.ExecEnd(0, function.CritHigh, 100)
	m.Waste("t", 100, time.Second)
	var a *Accountant
	a.OnExecuted(&function.Call{Spec: &function.Spec{}})
	if a.Meters() != nil {
		t.Error("nil accountant not zero-valued")
	}
	if s := a.Snapshot(sec(10)); s.CapacityCores != 0 {
		t.Error("nil accountant snapshot not zero")
	}
	var e *Engine
	e.Observe(&function.Call{Spec: &function.Spec{}}, 0)
	e.ObserveDeadLetter(&function.Call{Spec: &function.Spec{}}, 0)
	if s := e.Snapshot(0); len(s.Classes) != 0 {
		t.Error("nil engine snapshot not zero")
	}
}

// TestPrometheusGolden pins the exact text exposition of the
// xfaas_utilization_* and xfaas_slo_* families: deterministic family
// order, sorted label children, and window-mean series values. The
// /metrics endpoint participates in the determinism CI gate, so drift
// here must be a conscious choice.
func TestPrometheusGolden(t *testing.T) {
	reg := stats.NewRegistry()
	a := NewAccountant(reg, []string{"r0", "r1"}, 1000, time.Minute, 0)
	m0 := a.NewMeter(0, 2000, 1000, 0) // 2 cores in r0
	a.NewMeter(1, 1000, 1000, 0)       // 1 core in r1, stays idle

	m0.ExecStart(0, function.CritHigh, 1000)
	m0.ExecEnd(sec(45), function.CritHigh, 1000) // 45 busy core-seconds
	m0.Waste("vision", 1000, 5*time.Second)
	a.OnExecuted(&function.Call{
		Spec:       &function.Spec{Team: "vision"},
		CPUWorkM:   1500,
		QueuedAt:   sec(2),
		DispatchAt: sec(4),
	})
	a.Tick(sec(60)) // close the first window

	cfg := config.DefaultObserve().EnableAll()
	e := NewEngine(reg, cfg, nil)
	hi := &function.Spec{Criticality: function.CritHigh}
	e.Observe(&function.Call{Spec: hi, SubmitTime: sec(49)}, sec(50))
	e.Observe(&function.Call{Spec: hi, SubmitTime: sec(49)}, sec(50))
	e.ObserveDeadLetter(&function.Call{Spec: &function.Spec{Criticality: function.CritNormal}}, sec(50))
	e.Eval(sec(60))

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf, "xfaas_"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := `# TYPE xfaas_slo_bad_total counter
xfaas_slo_bad_total{crit="high"} 0
xfaas_slo_bad_total{crit="low"} 0
xfaas_slo_bad_total{crit="normal"} 1
# TYPE xfaas_slo_good_total counter
xfaas_slo_good_total{crit="high"} 2
xfaas_slo_good_total{crit="low"} 0
xfaas_slo_good_total{crit="normal"} 0
# TYPE xfaas_utilization_tenant_exec_core_seconds counter
xfaas_utilization_tenant_exec_core_seconds{team="vision"} 1.5
# TYPE xfaas_utilization_tenant_queue_seconds counter
xfaas_utilization_tenant_queue_seconds{team="vision"} 2
# TYPE xfaas_utilization_tenant_waste_core_seconds counter
xfaas_utilization_tenant_waste_core_seconds{team="vision"} 5
# TYPE xfaas_slo_alert_firing gauge
xfaas_slo_alert_firing{crit="high"} 0
xfaas_slo_alert_firing{crit="low"} 0
xfaas_slo_alert_firing{crit="normal"} 1
# TYPE xfaas_slo_burn_fast gauge
xfaas_slo_burn_fast{crit="high"} 0
xfaas_slo_burn_fast{crit="low"} 0
xfaas_slo_burn_fast{crit="normal"} 20
# TYPE xfaas_slo_burn_slow gauge
xfaas_slo_burn_slow{crit="high"} 0
xfaas_slo_burn_slow{crit="low"} 0
xfaas_slo_burn_slow{crit="normal"} 20
# TYPE xfaas_utilization_fleet gauge
xfaas_utilization_fleet 0.25
# TYPE xfaas_utilization_crit gauge
xfaas_utilization_crit{crit="high"} 0.25
xfaas_utilization_crit{crit="low"} 0
xfaas_utilization_crit{crit="normal"} 0
# TYPE xfaas_utilization_region gauge
xfaas_utilization_region{region="r0"} 0.375
xfaas_utilization_region{region="r1"} 0
`
	if buf.String() != golden {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
	// Byte-determinism across renders.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2, "xfaas_"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second render differs")
	}
}

// TestWindowedTimeline checks Tick records the per-window mean (not the
// cumulative mean) into the timeline: a window that is all-idle after a
// busy one must record zero.
func TestWindowedTimeline(t *testing.T) {
	reg := stats.NewRegistry()
	a := NewAccountant(reg, []string{"r0"}, 1000, time.Minute, 0)
	m := a.NewMeter(0, 1000, 1000, 0) // 1 core
	m.ExecStart(0, function.CritLow, 1000)
	m.ExecEnd(sec(60), function.CritLow, 1000)
	a.Tick(sec(60))  // window 1: fully busy
	a.Tick(sec(120)) // window 2: fully idle

	ts := reg.Series("utilization_fleet", time.Minute, stats.ModeMean)
	if ts.Len() != 2 {
		t.Fatalf("series has %d bins, want 2", ts.Len())
	}
	if v := ts.Value(0); v != 1 {
		t.Errorf("window 1 mean = %v, want 1 (fully busy)", v)
	}
	if v := ts.Value(1); v != 0 {
		t.Errorf("window 2 mean = %v, want 0 (fully idle)", v)
	}
	if u := a.Snapshot(sec(120)).Utilization; u != 0.5 {
		t.Errorf("cumulative utilization = %v, want 0.5", u)
	}
}
