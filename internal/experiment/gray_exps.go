package experiment

import (
	"time"

	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/stats"
	"xfaas/internal/workerlb"
	"xfaas/internal/workload"
)

// The gray-failure experiments drive detection v2, hedged dispatch and
// the regional drain drill end to end. Each runs the same workload with
// the defense off and on: subtle gray workers that never trip a
// heartbeat probe (graytail), a worker oscillating across the gray
// threshold (flapping), and a planned regional evacuation
// (drill_evacuation).

// grayRig is the 1-region gray-failure scenario: a fixed worker pool and a
// CritHigh-heavy steady mix with tight exec times.
func grayRig(s Scale, defended bool, workers int, mix workload.GrayMixConfig) rigConfig {
	rc := smallFleet(s, 1, workers)
	rc.Seeds = graySeeds
	if defended {
		rc.Platform.GrayDetection.Enabled = true
		rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
	}
	rc.Fill = func(pop *workload.Population, seed uint64) {
		workload.BuildGrayMix(pop, mix, rng.New(seed))
	}
	return rc
}

func runChaosGrayTail(s Scale, r *Result) {
	warm, grayLen, recover := 8*time.Minute, 20*time.Minute, 6*time.Minute
	if !s.Quick {
		warm, grayLen, recover = 10*time.Minute, 30*time.Minute, 8*time.Minute
	}
	const (
		workers  = 8
		grayed   = 2
		slowdown = 3.0 // below the 4x heartbeat probe threshold: invisible to v1
	)
	mix := workload.DefaultGrayMix()

	type outcome struct {
		p99Healthy, p99Gray float64
		detectedGray        float64 // heartbeat (v1) detections
		ejected, reinstated float64 // outlier (v2) actions
		t                   core.Counters
		recovered           bool
		executed            []float64
	}
	run := func(defended bool) outcome {
		rg := grayRig(s, defended, workers, mix).build()
		p, inj := rg.P, rg.Inj
		var lat []float64
		collecting := false
		// Dispatch-to-completion latency: the tail the gray worker inflates
		// and the tail hedging can recover. End-to-end latency would bury
		// both under batching and poll-cadence pipeline latency.
		p.AddOnExecuted(func(c *function.Call) {
			if collecting && c.Spec.Criticality == function.CritHigh {
				lat = append(lat, (c.ExecEndAt - c.DispatchAt).Seconds())
			}
		})
		measure := func(d time.Duration) float64 {
			lat = lat[:0]
			collecting = true
			p.Engine.RunFor(d)
			collecting = false
			return stats.ExactQuantile(lat, 0.99)
		}
		p.Engine.RunFor(warm)
		p99Healthy := measure(2 * time.Minute)
		for i := 0; i < grayed; i++ {
			inj.GrayWorker(0, i, slowdown)
		}
		// Skip the detection ramp (outlier scoring needs samples plus a
		// probation window), then measure the steady gray-era tail.
		p.Engine.RunFor(2 * time.Minute)
		p99Gray := measure(grayLen)
		lb := p.Region(0).LB
		o := outcome{
			p99Healthy:   p99Healthy,
			p99Gray:      p99Gray,
			detectedGray: lb.DetectedGray.Value(),
			ejected:      lb.Ejected.Value(),
			t:            core.CountersOf(p.Regions()...),
		}
		for i := 0; i < grayed; i++ {
			inj.ClearGray(0, i)
		}
		p.Engine.RunFor(recover)
		o.reinstated = lb.Reinstated.Value()
		o.recovered = measure(2*time.Minute) < 2*p99Healthy
		o.executed = p.Executed.Values()
		return o
	}

	off := run(false)
	on := run(true)
	budgetBound := scheduler.HedgeBudgetFrac*on.t.HedgeEarned + scheduler.HedgeBudgetBurst

	r.row("CritHigh p99 healthy → gray (undefended)", "tail triples, probes silent", "%.2fs → %.2fs",
		off.p99Healthy, off.p99Gray)
	r.row("CritHigh p99 healthy → gray (defended)", "tail held", "%.2fs → %.2fs",
		on.p99Healthy, on.p99Gray)
	r.row("heartbeat gray detections (off/on)", "0 — below probe threshold", "%.0f / %.0f",
		off.detectedGray, on.detectedGray)
	r.row("outlier ejections / reinstatements (defended)", "both gray workers", "%.0f / %.0f",
		on.ejected, on.reinstated)
	r.row("hedges dispatched / wins / cancelled / denied", "budget-bounded speculation",
		"%.0f / %.0f / %.0f / %.0f", on.t.Hedged, on.t.HedgeWins, on.t.HedgeCancelled, on.t.HedgeDenied)
	r.row("hedge tokens spent vs bound", "spent ≤ frac·primaries + burst", "%.0f vs %.0f",
		on.t.HedgeSpent, budgetBound)

	r.check("subtle gray is invisible to heartbeat probing", off.detectedGray == 0,
		"%.0f v1 detections at %.1fx slowdown", off.detectedGray, slowdown)
	r.check("undefended CritHigh p99 degrades materially", off.p99Gray > 2*off.p99Healthy,
		"%.2fs gray vs %.2fs healthy", off.p99Gray, off.p99Healthy)
	r.check("outlier scoring ejects every gray worker", on.ejected >= grayed,
		"%.0f ejections of %d gray workers", on.ejected, grayed)
	r.check("defended CritHigh p99 materially better", on.p99Gray <= 0.6*off.p99Gray,
		"%.2fs defended vs %.2fs undefended", on.p99Gray, off.p99Gray)
	r.check("hedged dispatch wins races against gray workers", on.t.HedgeWins > 0,
		"%.0f hedge wins", on.t.HedgeWins)
	r.check("hedge amplification respects the budget bound", on.t.HedgeSpent <= budgetBound+1e-6,
		"%.0f spent vs bound %.0f", on.t.HedgeSpent, budgetBound)
	r.check("no hedging without the feature enabled", off.t.Hedged == 0,
		"%.0f hedges in the undefended run", off.t.Hedged)
	r.check("cleared workers are reinstated and the tail recovers", on.reinstated >= grayed && on.recovered,
		"%.0f reinstatements, recovered=%v", on.reinstated, on.recovered)

	r.series("executed/min (undefended)", time.Minute, off.executed)
	r.series("executed/min (defended)", time.Minute, on.executed)
	r.note("%d of %d workers at 1/%.0f speed — below the %.0fx probe threshold; only exec-time outlier scoring can see them",
		grayed, workers, slowdown, workerlb.GraySlowdownThreshold)
}

func runChaosFlapping(s Scale, r *Result) {
	warm, flapLen := 5*time.Minute, simWindow(s, 30*time.Minute, 20*time.Minute)
	// Toggle every 4 probe intervals: 3 consecutive slow probes flip the
	// worker Gray just before the clear phase flips it back — the worst
	// duty cycle for threshold-based detection.
	probe := workerlb.HeartbeatInterval
	halfPeriod := 4 * probe
	const probation = 5 * time.Minute
	mix := workload.DefaultGrayMix()
	mix.Functions = 6

	type outcome struct {
		flips    float64 // probe-driven Gray/Healthy transitions
		ejected  float64
		executed []float64
	}
	run := func(defended bool) outcome {
		rc := grayRig(s, defended, 4, mix)
		if defended {
			rc.Platform.GrayDetection.Probation = probation
		}
		rg := rc.build()
		p, inj := rg.P, rg.Inj
		lb := p.Region(0).LB
		p.Engine.RunFor(warm)
		base := lb.DetectedGray.Value() + lb.DetectedRecovered.Value()
		slow := false
		p.Engine.Every(halfPeriod, func() {
			slow = !slow
			if slow {
				inj.GrayWorker(0, 0, 8.0)
			} else {
				inj.ClearGray(0, 0)
			}
		})
		p.Engine.RunFor(flapLen)
		return outcome{
			flips:    lb.DetectedGray.Value() + lb.DetectedRecovered.Value() - base,
			ejected:  lb.Ejected.Value(),
			executed: p.Executed.Values(),
		}
	}

	off := run(false)
	on := run(true)
	// One flip per probation window, plus one for the window in progress.
	flipCap := float64(flapLen/probation) + 1

	r.row("probe-driven state flips (off/on)", "flaps vs pinned", "%.0f / %.0f", off.flips, on.flips)
	r.row("flip budget with hysteresis", "≤ 1 per probation window", "%.0f allowed over %v", flipCap, flapLen)
	r.row("outlier ejections (defended)", "bounded by the flip budget", "%.0f", on.ejected)

	onTotal, _ := sumAndMax(on.executed)
	offTotal, _ := sumAndMax(off.executed)
	r.check("threshold detection flaps with the worker", off.flips >= 4*flipCap,
		"%.0f flips without hysteresis", off.flips)
	r.check("hysteresis caps flips at one per probation window", on.flips <= flipCap,
		"%.0f flips vs cap %.0f", on.flips, flipCap)
	// A flap period far below the probation window must NOT pin the worker
	// out: fast-phase completions legitimately reset probation, so the
	// scorer's ejections — routing flips too — obey the same budget. (The
	// sustained-outlier case, where ejection must happen, is chaos_graytail.)
	r.check("ejections obey the same routing-flip budget", on.ejected <= flipCap,
		"%.0f ejections vs cap %.0f", on.ejected, flipCap)
	r.check("the defended fleet keeps serving under flapping", onTotal >= 0.9*offTotal,
		"defended executed %.0f vs undefended %.0f", onTotal, offTotal)

	r.series("executed/min (undefended)", time.Minute, off.executed)
	r.series("executed/min (defended)", time.Minute, on.executed)
	r.note("worker 0 toggles 8x↔1x every %v; Gray needs %d consecutive slow probes at %v cadence",
		halfPeriod, workerlb.GrayThreshold, probe)
}

func runDrillEvacuation(s Scale, r *Result) {
	warm, drainLen, after := 10*time.Minute, 10*time.Minute, 10*time.Minute
	if !s.Quick {
		warm, drainLen, after = 15*time.Minute, 15*time.Minute, 15*time.Minute
	}

	rc := smallFleet(s, 3, 9)
	rc.Seeds = drillSeeds
	rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()

	// CritHigh traffic (migrates) + deferrable CritNormal traffic
	// (time-shifts in place). A slice of the CritHigh calls carry future
	// start times, so the drained region always holds a durable CritHigh
	// backlog for the migration stage to move.
	rc.Fill = func(pop *workload.Population, seed uint64) {
		mix := workload.DefaultGrayMix()
		mix.Functions = 6
		mix.RPSPerFunc = 0.5
		workload.BuildGrayMix(pop, mix, rng.New(seed))
		for _, m := range pop.Models {
			m.FutureStartFrac = 0.3
		}
		src := rng.New(seed + 50)
		for i := 0; i < 6; i++ {
			pop.Add(&function.Spec{
				Name:        "defer-" + string(rune('0'+i)),
				Team:        "team-defer",
				Criticality: function.CritNormal,
				QuotaMIPS:   1e9,
				Deadline:    10 * time.Minute,
				Resources: function.ResourceModel{
					CPUMu: 2.302585, CPUSigma: 0.2, // ln(10)
					MemMu: 2.079442, MemSigma: 0.2, // ln(8)
					TimeMu: 0, TimeSigma: 0.1, // ln(1s)
				},
			}, 0.5, src.Split())
		}
	}
	rg := rc.build()
	p, inj := rg.P, rg.Inj

	routeFailed := func() float64 {
		t := core.CountersOf(p.Regions()...)
		return t.Unroutable + t.RouteFailed
	}
	lost := func() float64 {
		t := core.CountersOf(p.Regions()...)
		return t.SubmitterLost + t.ShardLost
	}
	region0Acked := func() float64 { return core.CountersOf(p.Region(0)).SchedAcked }

	p.Engine.RunFor(warm)
	healthy := ackPhase(p, 5*time.Minute)
	failedBefore, lostBefore := routeFailed(), lost()

	inj.DrainRegion(0)
	drainRate := ackPhase(p, drainLen)
	rto, quiesced := p.Drainer.LastRTO(0)
	migrated := p.Drainer.MigratedCalls(0)
	released := core.CountersOf(p.Region(0)).Released
	r0AckedAtDrainEnd := region0Acked()
	t := core.CountersOf(p.Regions()...)

	r.row("drain RTO (admit-stop → quiesce)", "minutes, reported on the event log", "%v (quiesced=%v)",
		rto, quiesced)
	r.row("CritHigh calls migrated to peers", "site-critical work keeps a home", "%d", migrated)
	r.row("held calls released gracefully", "no retry accounting", "%.0f", released)
	r.row("ack rate healthy → draining (RPS)", "peers absorb the load", "%.1f → %.1f", healthy, drainRate)
	r.row("failed submissions during the drill", "0 — rerouted, not refused", "%.0f",
		routeFailed()-failedBefore)

	r.check("the drained region quiesces and reports an RTO", quiesced && rto > 0,
		"quiesced=%v rto=%v", quiesced, rto)
	r.check("queued CritHigh work migrates to peer regions", migrated > 0,
		"%d calls moved", migrated)
	r.check("no submission fails during the drain", routeFailed()-failedBefore == 0,
		"%.0f route failures", routeFailed()-failedBefore)
	r.check("zero acked-call loss across the drill", lost()-lostBefore == 0 && t.DeadLetters == 0,
		"%.0f lost, %.0f dead-lettered", lost()-lostBefore, t.DeadLetters)
	r.check("the fleet keeps serving through the drain", drainRate > 0.5*healthy,
		"%.1f vs %.1f RPS", drainRate, healthy)

	inj.UndrainRegion(0)
	ttr, finalRate, recovered := timeToRecover(p, 0.9*healthy, 2*time.Minute, after)
	r0Resumed := region0Acked() - r0AckedAtDrainEnd

	r.row("time back to ≥90% ack rate after undrain", "backlog drains", "%v (%.1f RPS)", ttr, finalRate)
	r.row("drained region acks after undrain", "resumes", "%.0f", r0Resumed)
	r.check("the region resumes after undrain", r0Resumed > 0, "%.0f acks", r0Resumed)
	r.check("ack rate recovers after the drill", recovered, "%.1f vs target %.1f RPS after %v",
		finalRate, 0.9*healthy, ttr)

	r.series("executed calls/min", time.Minute, p.Executed.Values())
	logEvents(r, inj, 6)
}
