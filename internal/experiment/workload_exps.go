package experiment

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

// drawCalls samples per-call resource draws from a population, weighted
// by each function's arrival rate.
func drawCalls(pop *workload.Population, perRPS float64) map[function.TriggerType][]*function.Call {
	out := map[function.TriggerType][]*function.Call{}
	for _, m := range pop.Models {
		if m.Burst != nil {
			continue
		}
		n := int(m.MeanRPS*perRPS) + 1
		for i := 0; i < n; i++ {
			out[m.Spec.Trigger] = append(out[m.Spec.Trigger], m.NewCall(0))
		}
	}
	return out
}

func runTable1(s Scale, r *Result) {
	cfg := workload.DefaultPopulationConfig()
	if !s.Quick {
		cfg.Functions = 2000
	}
	cfg.SpikyFunctions = 0
	pop := workload.NewPopulation(cfg, rng.New(s.Seed))

	funcs := map[function.TriggerType]float64{}
	calls := map[function.TriggerType]float64{}
	compute := map[function.TriggerType]float64{}
	var fTot, cTot, uTot float64
	for _, m := range pop.Models {
		res := m.Spec.Resources
		meanCPU := function.LogNormalMean(res.CPUMu, res.CPUSigma)
		funcs[m.Spec.Trigger]++
		fTot++
		calls[m.Spec.Trigger] += m.MeanRPS
		cTot += m.MeanRPS
		compute[m.Spec.Trigger] += m.MeanRPS * meanCPU
		uTot += m.MeanRPS * meanCPU
	}
	paper := map[function.TriggerType][3]string{
		function.TriggerQueue: {"89%", "15%", "86%"},
		function.TriggerEvent: {"8%", "85%", "14%"},
		function.TriggerTimer: {"3%", "<1%", "<1%"},
	}
	for _, tr := range function.Triggers {
		p := paper[tr]
		r.row(tr.String()+" functions", p[0], "%.0f%%", 100*funcs[tr]/fTot)
		r.row(tr.String()+" calls", p[1], "%.1f%%", 100*calls[tr]/cTot)
		r.row(tr.String()+" compute", p[2], "%.1f%%", 100*compute[tr]/uTot)
	}
	r.check("queue functions dominate count", funcs[function.TriggerQueue]/fTot > 0.8,
		"%.0f%% of functions are queue-triggered", 100*funcs[function.TriggerQueue]/fTot)
	r.check("event calls dominate invocations", calls[function.TriggerEvent]/cTot > 0.75,
		"%.0f%% of calls are event-triggered", 100*calls[function.TriggerEvent]/cTot)
	r.check("queue compute dominates usage", compute[function.TriggerQueue]/uTot > 0.6,
		"%.0f%% of compute is queue-triggered", 100*compute[function.TriggerQueue]/uTot)
}

func runTable2(s Scale, r *Result) {
	// Run the five named workloads through an actual platform and measure
	// executed calls, the way the paper profiles production workloads.
	rc := baseRig(s)
	rc.Seeds = table2Seeds
	rc.Platform.Cluster.Regions = 1
	rc.Platform.CodePushInterval = 0
	rc.TargetUtil, rc.Headroom, rc.MinWorkers = 0.6, 1.5, 4
	rc.Fill = func(pop *workload.Population, seed uint64) {
		src := rng.New(seed)
		for _, w := range workload.NamedWorkloads() {
			workload.BuildNamed(pop, w, src)
		}
	}
	p := rc.build().P

	type agg struct{ cpuMin, cpuMax, memMin, memMax, tMin, tMax float64 }
	byTeam := map[string]*agg{}
	p.AddOnExecuted(func(c *function.Call) {
		a, ok := byTeam[c.Spec.Team]
		if !ok {
			a = &agg{cpuMin: math.Inf(1), memMin: math.Inf(1), tMin: math.Inf(1)}
			byTeam[c.Spec.Team] = a
		}
		a.cpuMin = math.Min(a.cpuMin, c.CPUWorkM)
		a.cpuMax = math.Max(a.cpuMax, c.CPUWorkM)
		a.memMin = math.Min(a.memMin, c.MemMB)
		a.memMax = math.Max(a.memMax, c.MemMB)
		secs := (c.ExecEndAt - c.ExecStartAt).Seconds()
		a.tMin = math.Min(a.tMin, secs)
		a.tMax = math.Max(a.tMax, secs)
	})
	window := simWindow(s, 4*time.Hour, 90*time.Minute)
	p.Engine.RunFor(window)
	var teams []string
	for t := range byTeam {
		teams = append(teams, t)
	}
	sort.Strings(teams)
	for _, t := range teams {
		a := byTeam[t]
		r.row(t+" CPU (M instr)", "reconstructed", "%.2g – %.3g", a.cpuMin, a.cpuMax)
		r.row(t+" memory (MB)", "reconstructed", "%.2g – %.3g", a.memMin, a.memMax)
		r.row(t+" exec time (s)", "reconstructed", "%.2g – %.3g", a.tMin, a.tMax)
	}
	morph, falco := byTeam["team-morphing"], byTeam["team-falco"]
	if morph == nil || falco == nil {
		r.check("all named workloads executed", false, "teams seen: %d", len(byTeam))
		return
	}
	r.check("all five workloads executed", len(byTeam) == 5, "%d teams", len(byTeam))
	r.check("morphing CPU orders of magnitude above falco",
		morph.cpuMax > 100*falco.cpuMax,
		"morphing max %.3g vs falco max %.3g", morph.cpuMax, falco.cpuMax)
	r.check("morphing runs for minutes", morph.tMax > 60,
		"morphing max exec %.3gs", morph.tMax)
	r.note("Measured from calls executed on a live simulated platform. Table 2's numeric cells are elided in our copy of the paper; the presets reconstruct §3.2's prose.")
}

func runTable3(s Scale, r *Result) {
	cfg := workload.DefaultPopulationConfig()
	cfg.SpikyFunctions = 0
	if !s.Quick {
		cfg.Functions = 1200
	}
	pop := workload.NewPopulation(cfg, rng.New(s.Seed))
	perRPS := 40.0
	if s.Quick {
		perRPS = 10
	}
	byTrigger := drawCalls(pop, perRPS)

	paperCPU := map[function.TriggerType][2]float64{
		function.TriggerQueue: {20.40, 221.80},
		function.TriggerEvent: {0.54, 11.36},
		function.TriggerTimer: {0.37, 576.00},
	}
	cpuP50 := map[function.TriggerType]float64{}
	all := stats.NewHistogram() // exec seconds of every call, for §3.3's aggregate contract
	for _, tr := range function.Triggers {
		cpu, mem, tim := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
		for _, c := range byTrigger[tr] {
			cpu.Observe(c.CPUWorkM)
			mem.Observe(c.MemMB)
			tim.Observe(c.ExecSecs * 1000)
			all.Observe(c.ExecSecs)
		}
		cpuP50[tr] = cpu.Quantile(0.50)
		pc := paperCPU[tr]
		r.row(tr.String()+" CPU p10/p50/p90/p99 (M instr)",
			fmt.Sprintf("%.2f / %.2f / – / –", pc[0], pc[1]),
			"%.2f / %.2f / %.0f / %.0f", cpu.Quantile(0.10), cpu.Quantile(0.50), cpu.Quantile(0.90), cpu.Quantile(0.99))
		r.row(tr.String()+" memory p10/p50/p90/p99 (MB)", "60%<16MB, 92%<256MB overall",
			"%.1f / %.1f / %.0f / %.0f", mem.Quantile(0.10), mem.Quantile(0.50), mem.Quantile(0.90), mem.Quantile(0.99))
		r.row(tr.String()+" exec p10/p50/p90/p99 (ms)", "33%<1s, 94%<60s overall",
			"%.0f / %.0f / %.0f / %.0f", tim.Quantile(0.10), tim.Quantile(0.50), tim.Quantile(0.90), tim.Quantile(0.99))
	}
	// Cross-trigger ordering claims from Table 3.
	q50, e50 := cpuP50[function.TriggerQueue], cpuP50[function.TriggerEvent]
	r.check("queue CPU median ≫ event CPU median", q50 > 4*e50, "%.1f vs %.1f", q50, e50)
	u1, u60 := all.FractionBelow(1), all.FractionBelow(60)
	over5m := 1 - all.FractionBelow(300)
	r.row("calls <1s", "33%", "%.0f%%", 100*u1)
	r.row("calls <60s", "94%", "%.0f%%", 100*u60)
	r.row("calls >5m", "1%", "%.1f%%", 100*over5m)
	r.check("≈1/3 of calls finish within 1s", u1 > 0.15 && u1 < 0.55, "%.2f", u1)
	r.check("most calls finish within 60s", u60 > 0.85, "%.2f", u60)
	r.check("few calls exceed 5 minutes", over5m < 0.06, "%.3f", over5m)
}

func runFig3(s Scale, r *Result) {
	g := workload.GrowthSeries(rng.New(s.Seed))
	vals := make([]float64, len(g))
	for i, p := range g {
		vals[i] = p.DailyCalls
	}
	r.series("daily invocations (normalized, monthly)", 30*24*time.Hour, vals)
	growth := vals[len(vals)-1] / vals[0]
	r.row("5-year growth", "50x", "%.0fx", growth)
	r.check("≈50x growth over 5 years", growth > 25 && growth < 110, "%.0fx", growth)
	late := vals[59] / vals[53]
	mid := vals[30] / vals[24]
	r.row("late 6-month jump vs mid", "sharp (stream triggers)", "%.1fx vs %.1fx", late, mid)
	r.check("late jump steeper than organic growth", late > mid, "%.2f > %.2f", late, mid)
}

func runFig5(s Scale, r *Result) {
	rc := defaultRig(s, 0.66)
	rig := rc.build()
	shares := rig.P.Topo.CapacityShare()
	vals := make([]float64, len(shares))
	max, min := 0.0, math.Inf(1)
	for i, sh := range shares {
		vals[i] = sh * 100
		max = math.Max(max, sh)
		min = math.Min(min, sh)
	}
	r.series("capacity share per region (%)", time.Hour, vals)
	for i, sh := range shares {
		r.row(fmt.Sprintf("region-%02d", i), "uneven", "%.1f%% (%d workers)", sh*100, rig.P.Topo.Region(cluster.RegionID(i)).Workers)
	}
	r.row("max/min region capacity", "≈10x (figure)", "%.1fx", max/min)
	r.check("capacity unevenly distributed", max/min > 1.5, "max/min = %.1f", max/min)
}

func runTeamSkew(s Scale, r *Result) {
	cfg := workload.DefaultPopulationConfig()
	cfg.Functions = 1500
	cfg.Teams = 250
	if s.Quick {
		cfg.Functions = 600
		cfg.Teams = 120
	}
	cfg.SpikyFunctions = 0
	pop := workload.NewPopulation(cfg, rng.New(s.Seed))
	share := map[string]float64{}
	total := 0.0
	for _, m := range pop.Models {
		res := m.Spec.Resources
		cpu := m.MeanRPS * function.LogNormalMean(res.CPUMu, res.CPUSigma)
		share[pop.TeamOf[m.Spec.Name]] += cpu
		total += cpu
	}
	var shares []float64
	for _, v := range share {
		shares = append(shares, v/total)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(shares)))
	cum := 0.0
	teams50, teams90 := 0, 0
	for i, sh := range shares {
		cum += sh
		if teams50 == 0 && cum >= 0.5 {
			teams50 = i + 1
		}
		if teams90 == 0 && cum >= 0.9 {
			teams90 = i + 1
		}
	}
	n := float64(len(shares))
	r.row("top team share", "10%", "%.1f%%", 100*shares[0])
	r.row("teams for 50% of capacity", "0.4%", "%.1f%% (%d teams)", 100*float64(teams50)/n, teams50)
	r.row("teams for 90% of capacity", "2.6%", "%.1f%% (%d teams)", 100*float64(teams90)/n, teams90)
	r.check("heavy concentration at the top", shares[0] > 0.04, "top share %.2f", shares[0])
	r.check("half of capacity in a small team fraction", float64(teams50)/n < 0.15,
		"%.3f of teams hold 50%%", float64(teams50)/n)
	r.series("team capacity share (sorted, %)", time.Hour, scaleBy(shares, 100))
}

func scaleBy(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * k
	}
	return out
}
