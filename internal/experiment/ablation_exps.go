package experiment

import (
	"math"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/stats"
	"xfaas/internal/worker"
)

// runAndSampleMem runs the rig, periodically sampling each worker's
// memory, and returns exact P50/P95 across workers of each worker's
// time-averaged consumption — the paper reports "on average consumed
// 11.8% and 11.4% less memory at P50 and P95" across the partition.
func runAndSampleMem(rg *rig, window time.Duration) (p50, p95 float64) {
	sums := map[*worker.Worker]float64{}
	counts := 0
	steps := 12
	for i := 0; i < steps; i++ {
		rg.P.Engine.RunFor(window / time.Duration(steps))
		if i < steps/3 {
			continue // warmup
		}
		counts++
		for _, reg := range rg.P.Regions() {
			for _, w := range reg.Workers {
				sums[w] += w.MemUsedMB()
			}
		}
	}
	var avgs []float64
	for _, total := range sums {
		avgs = append(avgs, total/float64(counts))
	}
	return stats.ExactQuantile(avgs, 0.50), stats.ExactQuantile(avgs, 0.95)
}

// singleRegionRig is the default day hosted by one region, whose pool is
// then large enough for locality groups to be meaningful (the paper
// measures per-worker function diversity within a region's pool).
func singleRegionRig(s Scale, groups int) rigConfig {
	rc := defaultRig(s, 0.66)
	rc.Platform.Cluster.Regions = 1
	rc.Platform.LocalityGroups = groups
	rc.Pop.Functions = max(rc.Pop.Functions, 120)
	rc.Pop.TotalRPS *= 2.5 // one region hosts the whole load: bigger pool
	return rc
}

func runLocalityMem(s Scale, r *Result) {
	window := simWindow(s, 8*time.Hour, 3*time.Hour)

	with := singleRegionRig(s, 4).build()
	withP50, withP95 := runAndSampleMem(with, window)

	without := singleRegionRig(s, 0).build()
	noP50, noP95 := runAndSampleMem(without, window)

	save50 := 100 * (1 - withP50/noP50)
	save95 := 100 * (1 - withP95/noP95)
	r.row("memory saving at P50", "11.8%", "%.1f%% (%.1f vs %.1f GB)", save50, withP50/1024, noP50/1024)
	r.row("memory saving at P95", "11.4%", "%.1f%% (%.1f vs %.1f GB)", save95, withP95/1024, noP95/1024)
	r.check("locality groups reduce P50 memory", save50 > 2, "%.1f%%", save50)
	r.check("locality groups do not cost memory at P95", save95 > -8, "%.1f%%", save95)
	r.note("At simulation scale (tens of workers) the P95 worker is always in a memory-hog group, so P95 lands near parity; the paper's 11.4%% P95 saving relies on thousands of workers per group where the bounded code/JIT cache dominates the tail too.")

	// Distinct functions per worker also shrink (the mechanism).
	dWith, dWithout := stats.NewHistogram(), stats.NewHistogram()
	for _, w := range with.P.Regions()[0].Workers {
		dWith.Observe(float64(w.DistinctFuncsSince(0)))
	}
	for _, w := range without.P.Regions()[0].Workers {
		dWithout.Observe(float64(w.DistinctFuncsSince(0)))
	}
	r.row("distinct funcs/worker p50 (LG vs none)", "smaller with LGs",
		"%.0f vs %.0f", dWith.Quantile(0.5), dWithout.Quantile(0.5))
	r.check("locality shrinks per-worker function sets",
		dWith.Quantile(0.5) < dWithout.Quantile(0.5),
		"%.0f vs %.0f", dWith.Quantile(0.5), dWithout.Quantile(0.5))
}

func runAblationTimeShift(s Scale, r *Result) {
	shiftRatio := executedPeakTrough(s, 1)
	rawRatio := executedPeakTrough(s, 0)
	r.row("executed peak/trough with time-shifting", "≈1.4-2", "%.1f", shiftRatio)
	r.row("executed peak/trough all-reserved", "tracks received (≈4.3)", "%.1f", rawRatio)
	r.check("time-shifting flattens execution", shiftRatio < rawRatio,
		"%.1f vs %.1f", shiftRatio, rawRatio)
}

func runAblationGTC(s Scale, r *Result) {
	window := simWindow(s, 6*time.Hour, 2*time.Hour)

	run := func(enableGTC bool) (utilStd float64, backlog int, crossPulls float64) {
		rc := defaultRig(s, 0.66)
		rc.Platform.EnableGTC = enableGTC
		rc.Platform.Cluster.Regions = 4
		// Pronounced imbalance: region 0 receives 70% of submissions
		// while holding roughly a quarter of the capacity.
		rc.SubmitWeights = []float64{0.7, 0.1, 0.1, 0.1}
		rg := rc.build()
		rg.P.Engine.RunFor(window)
		var utils []float64
		for _, reg := range rg.P.Regions() {
			utils = append(utils, stats.MeanOf(reg.UtilSeries.Values()))
		}
		mean := stats.MeanOf(utils)
		varr := 0.0
		for _, u := range utils {
			varr += (u - mean) * (u - mean)
		}
		return math.Sqrt(varr / float64(len(utils))), rg.P.PendingCalls(), core.CountersOf(rg.P.Regions()...).CrossRegionPulls
	}

	stdWith, backlogWith, pullsWith := run(true)
	stdWithout, backlogWithout, pullsWithout := run(false)
	r.row("regional utilization stddev (GTC on)", "balanced", "%.3f", stdWith)
	r.row("regional utilization stddev (GTC off)", "imbalanced", "%.3f", stdWithout)
	r.row("pending backlog (on vs off)", "lower with GTC", "%d vs %d", backlogWith, backlogWithout)
	r.check("GTC actually moves traffic across regions", pullsWith > 0 && pullsWithout == 0,
		"pulls %v vs %v", pullsWith, pullsWithout)
	r.check("GTC reduces utilization imbalance or backlog",
		stdWith < stdWithout || backlogWith < backlogWithout,
		"std %.3f vs %.3f, backlog %d vs %d", stdWith, stdWithout, backlogWith, backlogWithout)
}

func runAblationAIMD(s Scale, r *Result) {
	window := simWindow(s, 45*time.Minute, 30*time.Minute)
	// Two functions at 40 RPS each offer 80 RPS against a 30-RPS
	// downstream; the threshold parameter turns AIMD on or (at 1e12,
	// unreachable) off.
	runVariant := func(threshold float64) float64 {
		p := incidentRig(s, "tao", 30, 40, 0, threshold).build().P
		svc, _ := p.Downstreams.Get("tao")
		p.Engine.RunFor(window)
		return svc.Availability()
	}
	availOn := runVariant(60)
	availOff := runVariant(1e12)
	r.row("downstream availability with AIMD", "protected", "%.1f%%", 100*availOn)
	r.row("downstream availability without AIMD", "degraded", "%.1f%%", 100*availOff)
	r.check("AIMD improves downstream availability", availOn > availOff+0.05,
		"%.2f vs %.2f", availOn, availOff)
}
