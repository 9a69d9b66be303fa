package baseline

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func blSpec(name string) *function.Spec {
	return &function.Spec{Name: name, Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry}
}

var blID uint64

func blCall(s *function.Spec, cpuM, memMB, secs float64) *function.Call {
	blID++
	return &function.Call{ID: blID, Spec: s, CPUWorkM: cpuM, MemMB: memMB, ExecSecs: secs}
}

func TestFirstCallColdStarts(t *testing.T) {
	e := sim.NewEngine()
	p := New(e, DefaultParams())
	c := blCall(blSpec("f"), 10, 64, 0.5)
	p.Submit(c)
	e.RunFor(time.Minute)
	if p.ColdStarts.Value() != 1 || p.WarmStarts.Value() != 0 {
		t.Fatalf("cold=%v warm=%v", p.ColdStarts.Value(), p.WarmStarts.Value())
	}
	// Start latency includes the full cold start.
	if got := p.StartLatency.Quantile(0.5); got < 7.5 || got > 8.5 {
		t.Fatalf("start latency = %vs, want ≈8s cold start", got)
	}
	if c.ExecEndAt == 0 {
		t.Fatal("call never completed")
	}
}

func TestWarmReuseSkipsColdStart(t *testing.T) {
	e := sim.NewEngine()
	p := New(e, DefaultParams())
	s := blSpec("f")
	p.Submit(blCall(s, 10, 64, 0.5))
	e.RunFor(time.Minute)
	c2 := blCall(s, 10, 64, 0.5)
	p.Submit(c2)
	e.RunFor(time.Minute)
	if p.WarmStarts.Value() != 1 {
		t.Fatalf("warm starts = %v", p.WarmStarts.Value())
	}
	// Warm start latency is ~0.
	if c2.ExecStartAt-c2.SubmitTime > time.Millisecond {
		t.Fatalf("warm start latency = %v", c2.ExecStartAt-c2.SubmitTime)
	}
}

func TestIdleTimeoutReapsMemory(t *testing.T) {
	e := sim.NewEngine()
	p := New(e, DefaultParams())
	p.Submit(blCall(blSpec("f"), 10, 64, 0.5))
	e.RunFor(time.Minute)
	if p.IdleMemoryMB() == 0 {
		t.Fatal("no idle container holding memory")
	}
	e.RunFor(11 * time.Minute)
	if p.IdleMemoryMB() != 0 {
		t.Fatalf("idle memory not reaped: %v MB", p.IdleMemoryMB())
	}
	// Next call cold-starts again.
	p.Submit(blCall(blSpec("f"), 10, 64, 0.5))
	e.RunFor(time.Minute)
	if p.ColdStarts.Value() != 2 {
		t.Fatalf("cold starts = %v, want 2 after reap", p.ColdStarts.Value())
	}
}

func TestMemoryExhaustionQueues(t *testing.T) {
	e := sim.NewEngine()
	params := DefaultParams()
	params.Hosts = 1
	params.HostMemoryMB = 1000
	p := New(e, params)
	// Each container needs 256+200 = 456MB: host fits 2.
	for i := 0; i < 4; i++ {
		p.Submit(blCall(blSpec("f"), 10, 200, 60))
	}
	e.RunFor(30 * time.Second)
	if q := len(p.queue["f"]); q != 2 {
		t.Fatalf("queued = %d, want 2 of 4", q)
	}
	// As containers finish, queued calls reuse them warm.
	e.RunFor(5 * time.Minute)
	if p.Completed.Value() != 4 {
		t.Fatalf("completed = %v", p.Completed.Value())
	}
}

func TestColdStartFraction(t *testing.T) {
	e := sim.NewEngine()
	p := New(e, DefaultParams())
	// 10 distinct rarely-called functions: every call is a cold start if
	// spaced beyond the idle timeout.
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			p.Submit(blCall(blSpec(string(rune('a'+i))), 10, 64, 0.5))
		}
		e.RunFor(20 * time.Minute) // beyond the 10m idle timeout
	}
	if f := p.ColdStartFraction(); f != 1 {
		t.Fatalf("cold fraction = %v, want 1.0 for sparse calls", f)
	}
}

func TestHighReuseUnderSteadyTraffic(t *testing.T) {
	e := sim.NewEngine()
	p := New(e, DefaultParams())
	s := blSpec("hot")
	e.Every(time.Second, func() {
		p.Submit(blCall(s, 10, 64, 0.2))
	})
	e.RunFor(30 * time.Minute)
	if f := p.ColdStartFraction(); f > 0.01 {
		t.Fatalf("cold fraction = %v for a hot function, want ≈0", f)
	}
}
