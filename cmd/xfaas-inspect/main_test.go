package main

import (
	"math"
	"testing"
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		minutes, funcs int
		rps            float64
		top, events    int
		ok             bool
	}{
		{30, 40, 10, 5, 40, true},
		{1, 1, 0.1, 0, 0, true},
		{0, 40, 10, 5, 40, false},
		{30, 0, 10, 5, 40, false},
		{30, 40, 0, 5, 40, false},
		{30, 40, math.NaN(), 5, 40, false},
		{30, 40, 10, -1, 40, false},
		{30, 40, 10, 5, -1, false},
	} {
		if err := checkFlags(c.minutes, c.funcs, c.rps, c.top, c.events); (err == nil) != c.ok {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", c, err, c.ok)
		}
	}
}

// TestScheduleChaosMatchesLibrary checks the inspector runs exactly the
// scenarios the chaos library marks Inspect, so -list, the -chaos help
// and the unknown-name error (all derived from the library) stay true.
func TestScheduleChaosMatchesLibrary(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 3
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	pop := workload.NewPopulation(workload.DefaultPopulationConfig(), rng.New(1))
	for _, c := range chaos.Library() {
		p := core.New(cfg, pop.Registry)
		if got := scheduleChaos(p, c.Name, 7, time.Hour); got != c.Inspect {
			t.Errorf("scheduleChaos(%q) = %v, library Inspect = %v", c.Name, got, c.Inspect)
		}
	}
}
