package experiment

import (
	"fmt"
	"slices"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

func runFig2(s Scale, r *Result) {
	rig := standardRun(s)

	received := rig.Gen.ReceivedSeries.Values()
	executed := rig.P.Executed.Values()
	r.series("received calls/min", time.Minute, received)
	r.series("executed calls/min", time.Minute, executed)

	// Smooth over 10-minute windows: the paper's curves are macro shapes.
	smoothRecv := stats.Resample(received, max(1, len(received)/10))
	smoothExec := stats.Resample(executed, max(1, len(executed)/10))
	recvRatio := stats.PeakToTroughFloor(smoothRecv, 1)
	execRatio := stats.PeakToTroughFloor(smoothExec, 1)
	r.row("received peak/trough", "4.3", "%.1f", recvRatio)
	r.row("executed peak/trough", "much smoother", "%.1f", execRatio)
	r.check("received load is spiky", recvRatio > 2.5, "%.1f", recvRatio)
	r.check("executed curve smoother than received", execRatio < recvRatio*0.8,
		"executed %.1f vs received %.1f", execRatio, recvRatio)
	r.row("calls executed", "-", "%.0f of %.0f received", rig.P.Acked(), rig.Gen.Generated.Value())
}

func runFig4(s Scale, r *Result) {
	rc := defaultRig(s, 0.66)
	rc.Pop.SpikyFunctions = 1
	rig := rc.build()
	focus := "spiky-fn-00"
	rig.Gen.Focus = focus
	focusExec := stats.NewTimeSeries(time.Minute, stats.ModeSum)
	rig.P.AddOnExecuted(func(c *function.Call) {
		if c.Spec.Name == focus {
			focusExec.Record(rig.P.Engine.Now(), 1)
		}
	})
	window := simWindow(s, workload.Day, 10*time.Hour)
	rig.P.Engine.RunFor(window)

	recv := rig.Gen.FocusSeries.Values()
	exec := focusExec.Values()
	r.series("spiky function received/min", time.Minute, recv)
	r.series("spiky function executed/min", time.Minute, exec)

	// Received: everything lands inside the 15-minute burst.
	recvTotal, recvBurstMax := sumAndMax(recv)
	execTotal, execMax := sumAndMax(exec)
	burstMinutes := activeMinutes(recv)
	execMinutes := activeMinutes(exec)
	r.row("burst length (received)", "15 min", "%d min", burstMinutes)
	r.row("execution spread", "hours", "%d min", execMinutes)
	r.row("peak received/min vs peak executed/min", "≫1", "%.0f vs %.0f", recvBurstMax, execMax)
	r.check("burst arrives in ≈15 minutes", burstMinutes <= 20, "%d minutes", burstMinutes)
	r.check("execution spread ≫ burst length", execMinutes >= 4*burstMinutes,
		"executed over %d min vs %d min burst", execMinutes, burstMinutes)
	r.check("most burst calls eventually execute", execTotal > 0.5*recvTotal,
		"%.0f of %.0f", execTotal, recvTotal)
}

func runFig7(s Scale, r *Result) {
	rig := standardRun(s)

	var dailyMeans []float64
	for _, reg := range rig.P.Regions() {
		vals := reg.UtilSeries.Values()
		r.series(fmt.Sprintf("region %02d utilization", reg.ID), time.Minute, scaleBy(vals, 100))
		dailyMeans = append(dailyMeans, stats.MeanOf(vals))
	}
	all := meanAcrossRegions(rig.P, func(reg *core.Region) []float64 { return reg.UtilSeries.Values() })
	dailyAvg := stats.MeanOf(dailyMeans)
	smooth := stats.Resample(all, max(1, len(all)/15))
	ratio := stats.PeakToTroughFloor(trimWarmup(smooth, 1), 0.01)
	r.row("daily average CPU utilization", "66%", "%.0f%%", 100*dailyAvg)
	r.row("utilization peak/trough", "1.4", "%.2f", ratio)
	r.check("daily average utilization is high", dailyAvg > 0.45 && dailyAvg < 0.95, "%.2f", dailyAvg)
	r.check("utilization much flatter than received load (4.3x)", ratio < 2.6, "%.2f", ratio)
}

func runFig8(s Scale, r *Result) {
	rig := standardRun(s)

	res := stats.NewHistogram()
	opp := stats.NewHistogram()
	for _, reg := range rig.P.Regions() {
		res.Merge(reg.Sched.SchedulingDelay)
		opp.Merge(reg.Sched.OpportunistDelay)
	}
	r.row("reserved delay p50 / p99 (s)", "seconds (SLO)", "%.1f / %.0f", res.Quantile(0.5), res.Quantile(0.99))
	r.row("opportunistic delay p50 / p99 (s)", "up to 24h SLO", "%.0f / %.0f", opp.Quantile(0.5), opp.Quantile(0.99))
	r.check("reserved calls start within seconds at p50", res.Quantile(0.5) < 30, "%.1fs", res.Quantile(0.5))
	r.check("opportunistic calls defer far longer than reserved", opp.Quantile(0.9) > 5*res.Quantile(0.9),
		"p90 %.0fs vs %.0fs", opp.Quantile(0.9), res.Quantile(0.9))
	r.note("The paper's Figure 8 panel is elided in our copy; this reconstructs §4.6.2's scheduling-delay contract.")
}

func runFig9(s Scale, r *Result) {
	rig := singleRegionRig(s, 4).build()
	window := simWindow(s, 8*time.Hour, 3*time.Hour)
	h := stats.NewHistogram()
	hours := int(window / time.Hour)
	for i := 0; i < hours; i++ {
		rig.P.Engine.RunFor(time.Hour)
		if i == 0 {
			continue // warmup hour
		}
		since := rig.P.Engine.Now() - time.Hour
		for _, reg := range rig.P.Regions() {
			for _, w := range reg.Workers {
				h.Observe(float64(w.DistinctFuncsSince(since)))
			}
		}
	}
	total := rig.Pop.Registry.Len()
	p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
	r.row("distinct functions/worker/hour p50", "≈61", "%.0f (of %d registered)", p50, total)
	r.row("distinct functions/worker/hour p95", "≈113", "%.0f", p95)
	r.check("workers see a small stable subset", p95 < float64(total),
		"p95 %.0f < %d total functions", p95, total)
	r.check("locality bounds the per-worker set", p50 <= float64(total)/2,
		"p50 %.0f vs %d/2", p50, total)
}

func runFig10(s Scale, r *Result) {
	rig := standardRun(s)

	mem := meanAcrossRegions(rig.P, func(reg *core.Region) []float64 { return reg.MemSeries.Values() })
	util := meanAcrossRegions(rig.P, func(reg *core.Region) []float64 { return reg.UtilSeries.Values() })
	r.series("mean worker memory (GB)", time.Minute, scaleBy(mem, 1.0/1024))
	r.series("mean worker utilization (%)", time.Minute, scaleBy(util, 100))
	steady := stats.Resample(trimWarmup(mem, len(mem)/4), 24)
	maxMem, minMem := slices.Max(steady), slices.Min(steady)
	r.row("worker memory budget", "64 GB", "max observed %.1f GB", maxMem/1024)
	r.row("memory stability (max/min, steady state)", "stable", "%.2f", maxMem/minMem)
	r.check("memory stays under the 64GB budget", maxMem < 64*1024, "%.1f GB", maxMem/1024)
	r.check("memory level is stable while utilized", maxMem/minMem < 2.5, "%.2f", maxMem/minMem)
}

func runFig11(s Scale, r *Result) {
	rig := standardRun(s)

	res := rig.P.ReservedCPU.Values()
	opp := rig.P.OpportunisticCPU.Values()
	n := min(len(res), len(opp))
	res, opp = res[:n], opp[:n]
	r.series("reserved CPU (M instr/min)", time.Minute, res)
	r.series("opportunistic CPU (M instr/min)", time.Minute, opp)

	smoothRes := stats.Resample(res, max(2, n/20))
	smoothOpp := stats.Resample(opp, max(2, n/20))
	corr := stats.Correlation(smoothRes, smoothOpp)
	r.row("reserved/opportunistic correlation", "complementary (negative)", "%.2f", corr)
	r.check("opportunistic work executes", stats.MeanOf(opp) > 0, "mean %.0f", stats.MeanOf(opp))
	r.check("curves are anti-correlated", corr < 0.1, "corr %.2f", corr)
	resRatio := stats.PeakToTroughFloor(smoothRes, 1)
	r.row("reserved curve shape", "diurnal", "peak/trough %.1f", resRatio)
	r.check("reserved curve is diurnal", resRatio > 1.3, "%.1f", resRatio)
}

// Helpers shared by the platform experiments.

// meanAcrossRegions averages one per-region series bin by bin.
func meanAcrossRegions(p *core.Platform, series func(*core.Region) []float64) []float64 {
	var mean []float64
	for _, reg := range p.Regions() {
		vals := series(reg)
		if mean == nil {
			mean = make([]float64, len(vals))
		}
		for i := 0; i < len(mean) && i < len(vals); i++ {
			mean[i] += vals[i] / float64(p.Topo.NumRegions())
		}
	}
	return mean
}

func sumAndMax(v []float64) (sum, max float64) {
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	return sum, max
}

// activeMinutes counts bins with meaningful activity (≥1% of the peak).
func activeMinutes(v []float64) int {
	_, peak := sumAndMax(v)
	if peak == 0 {
		return 0
	}
	n := 0
	for _, x := range v {
		if x >= peak*0.01 {
			n++
		}
	}
	return n
}

func trimWarmup(v []float64, warm int) []float64 {
	if warm >= len(v) {
		return v
	}
	return v[warm:]
}
