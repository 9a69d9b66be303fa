package experiment

import (
	"math"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

// runCriticality offers three identical functions — differing only in
// criticality — at twice a small fleet's capacity and checks that
// importance decides who executes (paper §4.4: "prioritizing criticality
// first ensures that important function calls are more likely to be
// executed during a capacity crunch").
func runCriticality(s Scale, r *Result) {
	rc := baseRig(s)
	rc.Seeds = criticalitySeeds
	rc.Platform.Cluster.Regions = 1
	rc.Platform.Cluster.TotalWorkers = 4
	rc.Platform.LocalityGroups = 0
	rc.Platform.CodePushInterval = 0

	crits := []function.Criticality{function.CritLow, function.CritNormal, function.CritHigh}
	// Each function alone wants ~66% of the 4-worker fleet: together they
	// offer ~2x capacity, so roughly one class's worth must starve.
	const perFuncRPS = 26
	rc.Fill = func(pop *workload.Population, seed uint64) {
		for i, crit := range crits {
			pop.Add(&function.Spec{
				Name:        "crit-" + crit.String(),
				Team:        "team-crit",
				Criticality: crit,
				Deadline:    5 * time.Minute,
				Resources: function.ResourceModel{
					CPUMu: math.Log(50), CPUSigma: 0.3,
					MemMu: math.Log(16), MemSigma: 0.3,
					TimeMu: math.Log(0.3), TimeSigma: 0.3,
				},
			}, perFuncRPS, rng.New(seed+uint64(i)))
		}
	}
	p := rc.build().P

	done := map[function.Criticality]float64{}
	p.AddOnExecuted(func(c *function.Call) { done[c.Spec.Criticality]++ })
	window := simWindow(s, 90*time.Minute, 60*time.Minute)
	p.Engine.RunFor(window)

	offeredPer := perFuncRPS * window.Seconds()
	r.row("high-criticality executed", "nearly all", "%.0f%% of offered", 100*done[function.CritHigh]/offeredPer)
	r.row("normal-criticality executed", "partial", "%.0f%% of offered", 100*done[function.CritNormal]/offeredPer)
	r.row("low-criticality executed", "deferred", "%.0f%% of offered", 100*done[function.CritLow]/offeredPer)
	r.check("execution follows criticality order",
		done[function.CritHigh] >= done[function.CritNormal] &&
			done[function.CritNormal] >= done[function.CritLow],
		"high %.0f ≥ normal %.0f ≥ low %.0f",
		done[function.CritHigh], done[function.CritNormal], done[function.CritLow])
	r.check("high criticality barely starves", done[function.CritHigh] > 0.7*offeredPer,
		"%.0f of %.0f", done[function.CritHigh], offeredPer)
	r.check("low criticality absorbs the shortfall", done[function.CritLow] < 0.8*done[function.CritHigh],
		"%.0f vs %.0f", done[function.CritLow], done[function.CritHigh])
}

// executedPeakTrough runs the standard day on the default rig's capacity
// with the population's quota classes rewritten — every function reserved
// (oppScale 0), the default mix (1), or (almost) every function
// opportunistic (above 1) — and returns the peak-to-trough ratio of the
// smoothed executed curve.
func executedPeakTrough(s Scale, oppScale float64) float64 {
	rig := defaultRig(s, 0.66).build()
	for _, m := range rig.Pop.Models {
		switch {
		case oppScale == 0:
			// No time-shifting at all.
			m.Spec.Quota = function.QuotaReserved
			m.Spec.QuotaMIPS = 0
			m.Spec.Deadline = 15 * time.Minute
		case oppScale > 1 && m.Spec.Quota == function.QuotaReserved:
			res := m.Spec.Resources
			m.Spec.Quota = function.QuotaOpportunistic
			m.Spec.QuotaMIPS = m.MeanRPS * function.LogNormalMean(res.CPUMu, res.CPUSigma)
			m.Spec.Deadline = 24 * time.Hour
		}
	}
	rig.P.Engine.RunFor(simWindow(s, workload.Day, 8*time.Hour))
	exec := rig.P.Executed.Values()
	return stats.PeakToTroughFloor(stats.Resample(exec, max(2, len(exec)/10)), 1)
}

// runOppFracSweep reruns the standard day with different opportunistic
// fractions on identical capacity and reports how execution smoothness
// responds — quantifying §8's "transition most functions ... to
// opportunistic quota for additional capacity savings".
func runOppFracSweep(s Scale, r *Result) {
	ptNone := executedPeakTrough(s, 0)
	ptDefault := executedPeakTrough(s, 1)
	ptAll := executedPeakTrough(s, 2)
	r.row("executed peak/trough, 0% opportunistic", "tracks received", "%.1f", ptNone)
	r.row("executed peak/trough, default mix (~40%)", "smoothed", "%.1f", ptDefault)
	r.row("executed peak/trough, ~100% opportunistic", "smoothest", "%.1f", ptAll)
	r.check("time-shifting flattens execution vs all-reserved", ptDefault < ptNone*0.8,
		"%.1f vs %.1f", ptDefault, ptNone)
	r.check("full conversion is at least as smooth as the default mix", ptAll <= ptDefault*1.15,
		"%.2f vs %.2f", ptAll, ptDefault)
	r.note("Supports §8: converting reserved-quota functions to opportunistic reduces the peak capacity the fleet must be provisioned for.")
}
