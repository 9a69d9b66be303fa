package core

import (
	"reflect"
	"testing"
	"time"

	"xfaas/internal/workload"
)

// addCounters is the field-wise sum of two readings.
func addCounters(a, b Counters) Counters {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		switch f := va.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + vb.Field(i).Int())
		case reflect.Float64:
			f.SetFloat(f.Float() + vb.Field(i).Float())
		default:
			panic("Counters field " + va.Type().Field(i).Name + " is neither int nor float64")
		}
	}
	return a
}

// TestCountersFoldEachComponentOnce runs two regions of two scheduler
// replicas each, with hedging and outlier detection on, through a gray
// tail: two workers per region slow to a third of their speed, below the
// heartbeat probe's threshold. A reading over both regions must be the sum
// of the per-region readings, scheduler counters must cover both replicas,
// and the hedge budget the replicas share must be counted once.
func TestCountersFoldEachComponentOnce(t *testing.T) {
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.Cluster.Regions = 2
		c.SchedulersPerRegion = 2
		c.GrayDetection.Enabled = true
		c.Resilience = c.Resilience.EnableAll()
	})
	p.Engine.RunFor(10 * time.Minute)
	for _, reg := range p.Regions() {
		reg.Workers[0].SetSlowdown(3)
		reg.Workers[1].SetSlowdown(3)
	}
	p.Engine.RunFor(20 * time.Minute)

	var sum Counters
	for _, reg := range p.Regions() {
		sum = addCounters(sum, CountersOf(reg))
	}
	if all := CountersOf(p.Regions()...); all != sum {
		t.Fatalf("reading over all regions differs from the sum of per-region readings:\n all %+v\n sum %+v", all, sum)
	}
	if sum.Hedged == 0 {
		t.Fatal("no hedge dispatched: the gray tail did not reach the hedging path")
	}

	for _, reg := range p.Regions() {
		c := CountersOf(reg)
		a, b := reg.Scheds[0], reg.Scheds[1]
		if a.Polled.Value() == 0 || b.Polled.Value() == 0 {
			t.Fatalf("r%d: a replica never polled (%v, %v); the replica sum is vacuous",
				reg.ID, a.Polled.Value(), b.Polled.Value())
		}
		for _, f := range []struct {
			name      string
			got, a, b float64
		}{
			{"Polled", c.Polled, a.Polled.Value(), b.Polled.Value()},
			{"Dispatched", c.Dispatched, a.Dispatched.Value(), b.Dispatched.Value()},
			{"SchedAcked", c.SchedAcked, a.Acked.Value(), b.Acked.Value()},
			{"Hedged", c.Hedged, a.Hedged.Value(), b.Hedged.Value()},
		} {
			if f.got != f.a+f.b {
				t.Errorf("r%d %s = %v, want %v + %v over both replicas", reg.ID, f.name, f.got, f.a, f.b)
			}
		}

		hb := a.HedgeBudget
		if hb == nil || b.HedgeBudget != hb {
			t.Fatalf("r%d: the replicas do not share one hedge budget", reg.ID)
		}
		if hb.Earned.Value() == 0 {
			t.Fatalf("r%d: the hedge budget earned nothing", reg.ID)
		}
		if c.HedgeEarned != hb.Earned.Value() || c.HedgeSpent != hb.Spent.Value() {
			t.Errorf("r%d hedge budget read as earned=%v spent=%v, want %v and %v: once per region, not per replica",
				reg.ID, c.HedgeEarned, c.HedgeSpent, hb.Earned.Value(), hb.Spent.Value())
		}
	}
}
