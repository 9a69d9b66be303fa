package experiment

import (
	"math"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

// incidentRig is a one-region platform with two functions (A and B) that
// call the named downstream on every invocation, each offered at
// steadyRPS. bpThreshold is the AIMD back-pressure threshold (exceptions
// per minute); pass a huge value to effectively disable AIMD.
func incidentRig(s Scale, dsName string, dsCapacity, steadyRPS float64, concurrencyLimit int, bpThreshold float64) rigConfig {
	rc := baseRig(s)
	rc.Seeds = incidentSeeds
	cfg := &rc.Platform
	cfg.Cluster.Regions = 1
	cfg.Cluster.TotalWorkers = 16
	cfg.CodePushInterval = 0
	cfg.Downstreams = []core.DownstreamSpec{{Name: dsName, CapacityRPS: dsCapacity}}
	cfg.LocalityGroups = 0 // two functions: locality groups are meaningless here
	cfg.EnableRIM = false  // isolate the reactive AIMD loop, as §5.5 does
	// Tight AIMD so the simulated incident reacts on simulation-friendly
	// thresholds (the paper's 5000/min threshold is for Meta-scale RPS).
	cfg.AIMD.BackpressureThreshold = bpThreshold
	cfg.AIMD.Increase = 10
	cfg.AIMD.DecreaseFactor = 0.5

	rc.Fill = func(pop *workload.Population, seed uint64) {
		for i, name := range []string{"func-a", "func-b"} {
			pop.Add(&function.Spec{
				Name:             name,
				Team:             "team-graph",
				Criticality:      function.CritNormal,
				Deadline:         time.Hour,
				Downstream:       dsName,
				ConcurrencyLimit: concurrencyLimit,
				Resources: function.ResourceModel{
					CPUMu: math.Log(50), CPUSigma: 0.4,
					MemMu: math.Log(16), MemSigma: 0.4,
					TimeMu: math.Log(0.3), TimeSigma: 0.3,
				},
			}, steadyRPS, rng.New(seed+uint64(i)))
		}
	}
	return rc
}

func runFig13(s Scale, r *Result) {
	const dsName = "wtcache"
	healthyCap := 500.0
	p := incidentRig(s, dsName, healthyCap, 40, 0, 60).build().P
	svc, _ := p.Downstreams.Get(dsName)

	pre := 50 * time.Minute
	incident := 45 * time.Minute
	post := 60 * time.Minute
	if s.Quick {
		pre, incident, post = 40*time.Minute, 35*time.Minute, 45*time.Minute
	}
	// offeredTail runs the span and reports the offered RPS over its last
	// tail minutes (the settled behaviour, after slow start or the AIMD
	// reaction has converged).
	offeredTail := func(span, tail time.Duration) float64 {
		p.Engine.RunFor(span - tail)
		before := svc.Served.Value() + svc.Failures.Value() + svc.Backpressure.Value()
		p.Engine.RunFor(tail)
		after := svc.Served.Value() + svc.Failures.Value() + svc.Backpressure.Value()
		return (after - before) / tail.Seconds()
	}

	healthyRPS := offeredTail(pre, 10*time.Minute)
	// The KVStore bug: WTCache can only serve a sliver of its capacity
	// and back-pressures the rest.
	svc.SetCapacity(healthyCap / 50)
	duringRPS := offeredTail(incident, 10*time.Minute)
	svc.SetCapacity(healthyCap)
	recoveredRPS := offeredTail(post, 15*time.Minute)

	r.series("wtcache offered load (req/min)", time.Minute, svc.LoadSeries.Values())
	r.series("wtcache availability (per min)", time.Minute, svc.AvailSeries.Values())

	r.row("offered load before incident (RPS)", "high steady", "%.1f", healthyRPS)
	r.row("offered load during incident", "cut by AIMD", "%.1f", duringRPS)
	r.row("offered load after recovery", "restored", "%.1f", recoveredRPS)
	r.check("AIMD cuts traffic during the incident", duringRPS < healthyRPS*0.6,
		"%.1f vs healthy %.1f", duringRPS, healthyRPS)
	r.check("traffic recovers after the fix", recoveredRPS > healthyRPS*0.6,
		"%.1f vs healthy %.1f", recoveredRPS, healthyRPS)
	r.check("some probing traffic continues during the incident", duringRPS > 0.1,
		"%.2f RPS", duringRPS)
}

func runFig14(s Scale, r *Result) {
	const dsName = "indexer"
	// A fresh function surges to 80 RPS against a 50-RPS downstream.
	p := incidentRig(s, dsName, 50, 40, 24, 60).build().P
	svc, _ := p.Downstreams.Get(dsName)

	window := simWindow(s, 40*time.Minute, 25*time.Minute)
	p.Engine.RunFor(window)

	load := svc.LoadSeries.Values()
	r.series("downstream offered load (req/min)", time.Minute, load)
	r.series("downstream availability (per min)", time.Minute, svc.AvailSeries.Values())

	// Slow start: per-minute growth early in the ramp stays ≤ ~20%+slack
	// once above the 100-calls/min threshold.
	maxGrowth := 0.0
	for i := 2; i < len(load) && i < 15; i++ {
		if load[i-1] > 120 {
			g := load[i] / load[i-1]
			if g > maxGrowth {
				maxGrowth = g
			}
		}
	}
	r.row("max per-minute growth above threshold", "≤1.2 (α=20%)", "%.2f", maxGrowth)
	r.check("ramp respects the slow-start growth cap", maxGrowth <= 1.35,
		"max growth %.2f", maxGrowth)
	avail := svc.Availability()
	r.row("downstream availability", "protected", "%.1f%%", 100*avail)
	r.check("downstream not collapsed by the surge", avail > 0.6, "%.2f", avail)
	r.note("Figure 14's exact panel is elided in our copy; this reconstructs §4.6.3's slow-start + concurrency-limit behaviour for §5.5's second incident.")
}
