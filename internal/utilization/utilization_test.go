package utilization

import (
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/sim"
)

func TestConvergesNearTarget(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	store := config.NewStore(e)
	// Closed loop: utilization responds to S (a simple plant where
	// opportunistic work contributes proportionally to S).
	var c *Controller
	plant := func() float64 {
		base := 0.4 // reserved work
		return base + 0.1*c.S()
	}
	c = New(e, p, store, plant)
	e.RunFor(2 * time.Hour)
	finalUtil := plant()
	if finalUtil < p.Target-0.1 || finalUtil > p.Target+0.1 {
		t.Fatalf("converged utilization = %v, want ≈%v", finalUtil, p.Target)
	}
}

func TestPublishesToStore(t *testing.T) {
	e := sim.NewEngine()
	store := config.NewStore(e)
	cache := config.NewCache(store, ScaleKey)
	New(e, DefaultParams(), store, func() float64 { return 0.5 })
	if v, ok := config.NewCache(store, ScaleKey).Get(); !ok || v.(float64) != 1 {
		t.Fatalf("initial S not stored: %v %v", v, ok)
	}
	e.RunFor(5 * time.Minute)
	v, ok := cache.Get()
	if !ok || v.(float64) <= 1 {
		t.Fatalf("S updates not delivered to subscribers: %v", v)
	}
}

func TestSeriesRecorded(t *testing.T) {
	e := sim.NewEngine()
	store := config.NewStore(e)
	c := New(e, DefaultParams(), store, func() float64 { return 0.5 })
	e.RunFor(10 * time.Minute)
	if c.Series.Len() == 0 {
		t.Fatal("no S series recorded")
	}
	if c.Adjustments.Value() < 10 {
		t.Fatalf("adjustments = %v", c.Adjustments.Value())
	}
}
