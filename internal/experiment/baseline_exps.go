package experiment

import (
	"time"

	"xfaas/internal/baseline"
	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

func runBaselineColdstart(s Scale, r *Result) {

	// Long-tail population: the total rate is unchanged but spread over
	// many functions, most of which are invoked rarer than the 10-minute
	// keep-alive — the regime the paper's §1 quotes for Azure ("81% of
	// the applications are invoked once per minute or less").
	rc := defaultRig(s, 0.66)
	rc.Pop.Functions = 500
	if !s.Quick {
		rc.Pop.Functions = 900
	}
	rc.Pop.SpikyFunctions = 0

	// XFaaS side.
	xr := rc.build()
	window := simWindow(s, workload.Day, 8*time.Hour)
	xr.P.Engine.RunFor(window)
	xfWorkers := xr.P.Topo.TotalWorkers()
	xfDelay := stats.NewHistogram()
	for _, reg := range xr.P.Regions() {
		xfDelay.Merge(reg.Sched.SchedulingDelay)
	}

	// Conventional side: identical hardware and workload.
	engine := sim.NewEngine()
	pop := rc.population()
	params := baseline.DefaultParams()
	params.Hosts = xfWorkers
	params.HostMemoryMB = rc.Platform.Worker.MemoryMB
	params.CoreMIPS = rc.Platform.Worker.CoreMIPS
	bp := baseline.New(engine, params)
	gen := workload.NewGenerator(engine, pop, []float64{1},
		func(_ cluster.RegionID, _ string, c *function.Call) error {
			bp.Submit(c)
			return nil
		}, rng.New(rc.Platform.Seed+rc.Seeds.Gen))
	gen.Start()
	engine.RunFor(window)

	xfP50, xfP99 := xfDelay.Quantile(0.5), xfDelay.Quantile(0.99)
	blP50 := bp.StartLatency.Quantile(0.5)
	blP99 := bp.StartLatency.Quantile(0.99)
	coldFrac := bp.ColdStartFraction()
	mostlyCold := bp.MostlyColdFunctions()
	idleGB := bp.IdleMemoryMB() / 1024

	r.row("cold starts (XFaaS)", "eliminated (§4.5)", "0 (code pre-pushed, runtime shared)")
	r.row("cold-start fraction of calls (conventional)", "long tail pays", "%.1f%%", 100*coldFrac)
	r.row("functions mostly cold (conventional)", "81% of apps ≤1/min [39]", "%.0f%%", 100*mostlyCold)
	r.row("start latency p50/p99 (XFaaS reserved, s)", "seconds SLO", "%.1f / %.0f", xfP50, xfP99)
	r.row("start latency p50/p99 (conventional, s)", "cold starts in the tail", "%.1f / %.1f", blP50, blP99)
	r.row("memory held by idle containers", "10+ min keep-alive [45]", "%.1f GB across %d hosts", idleGB, xfWorkers)

	r.check("conventional model pays cold starts", coldFrac > 0.01, "fraction %.3f", coldFrac)
	r.check("a large share of functions is mostly cold", mostlyCold > 0.3, "%.2f", mostlyCold)
	r.check("conventional tail latency includes cold starts", blP99 >= baseline.ColdStart.Seconds()*0.9,
		"p99 %.1fs vs %.0fs cold start", blP99, baseline.ColdStart.Seconds())
	r.check("idle containers waste memory", idleGB > 1, "%.1f GB idle", idleGB)
	r.note("Same hardware and same workload on both platforms. XFaaS start delays reflect quota throttling and time-shifting, never cold starts; the conventional platform's tail is the container boot.")
}
