package rim

import (
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/sim"
)

type fakeSource struct {
	name string
	util float64
}

func (f *fakeSource) RIMName() string         { return f.name }
func (f *fakeSource) RIMUtilization() float64 { return f.util }

func TestAdviceRamp(t *testing.T) {
	e := sim.NewEngine()
	store := config.NewStore(e)
	src := &fakeSource{name: "tao", util: 0.3}
	r := New(e, store, src)

	e.RunFor(time.Minute)
	if m := r.MultiplierFor("tao"); m != 1 {
		t.Fatalf("comfortable service multiplier = %v, want 1", m)
	}
	// Midway between soft (0.8) and hard (1.2): multiplier ≈ midway
	// between 1 and the 0.05 floor.
	src.util = 1.0
	e.RunFor(time.Minute)
	m := r.MultiplierFor("tao")
	if m < 0.4 || m > 0.65 {
		t.Fatalf("mid-ramp multiplier = %v, want ≈0.525", m)
	}
	src.util = 2.0
	e.RunFor(time.Minute)
	if m := r.MultiplierFor("tao"); m != 0.05 {
		t.Fatalf("overloaded multiplier = %v, want floor 0.05", m)
	}
	src.util = 0.1
	e.RunFor(time.Minute)
	if m := r.MultiplierFor("tao"); m != 1 {
		t.Fatalf("recovered multiplier = %v", m)
	}
}

func TestUnknownComponentUnconstrained(t *testing.T) {
	e := sim.NewEngine()
	r := New(e, config.NewStore(e))
	if m := r.MultiplierFor("ghost"); m != 1 {
		t.Fatalf("unknown multiplier = %v", m)
	}
}

func TestPublishesThroughConfigStore(t *testing.T) {
	e := sim.NewEngine()
	store := config.NewStore(e)
	src := &fakeSource{name: "kv", util: 5}
	New(e, store, src)
	cache := config.NewCache(store, AdviceKey)
	e.RunFor(2 * time.Minute)
	v, ok := cache.Get()
	if !ok {
		t.Fatal("advice never published")
	}
	if m := v.(Advice).Multiplier("kv"); m != 0.05 {
		t.Fatalf("published multiplier = %v", m)
	}
}
