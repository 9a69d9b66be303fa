package main

import (
	"math"
	"testing"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		minutes, funcs int
		rps            float64
		sample         uint64
		top, events    int
		ok             bool
	}{
		{30, 40, 10, 1, 5, 40, true},
		{1, 1, 0.1, 16, 0, 0, true},
		{0, 40, 10, 1, 5, 40, false},
		{30, 0, 10, 1, 5, 40, false},
		{30, 40, 0, 1, 5, 40, false},
		{30, 40, math.NaN(), 1, 5, 40, false},
		{30, 40, 10, 0, 5, 40, false},
		{30, 40, 10, 1, -1, 40, false},
		{30, 40, 10, 1, 5, -1, false},
	} {
		if err := checkFlags(c.minutes, c.funcs, c.rps, c.sample, c.top, c.events); (err == nil) != c.ok {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", c, err, c.ok)
		}
	}
}

// TestScenarios: every scenario name is unique and arms at least one
// event on the engine, and a name outside the table arms nothing.
func TestScenarios(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 3
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	pop := workload.NewPopulation(workload.DefaultPopulationConfig(), rng.New(1))
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if seen[sc.name] {
			t.Errorf("scenario %q listed twice", sc.name)
		}
		seen[sc.name] = true
		p := core.New(cfg, pop.Registry)
		before := p.Engine.Pending()
		if !scheduleChaos(p, sc.name, 7, time.Hour) {
			t.Errorf("scheduleChaos(%q) = false", sc.name)
		}
		if p.Engine.Pending() <= before {
			t.Errorf("scenario %q scheduled no event", sc.name)
		}
	}
	p := core.New(cfg, pop.Registry)
	before := p.Engine.Pending()
	if scheduleChaos(p, "nosuch", 7, time.Hour) || p.Engine.Pending() != before {
		t.Error("an unknown scenario name was accepted")
	}
}
