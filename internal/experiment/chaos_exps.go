package experiment

import (
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/workerlb"
)

// The chaos experiments drive the fault-injection engine end to end:
// inject a failure mode the control plane is never told about, watch the
// heartbeat protocol detect it within its configured lag, and measure the
// recovery shape — the ack-rate dip during the fault and the time back to
// ≥90% of the pre-fault ack rate after repair.

// chaosRig builds a stationary-load rig (no diurnal cycle, no spikes) so
// ack-rate comparisons across phases isolate the injected fault.
func chaosRig(s Scale, targetUtil float64) rigConfig {
	rc := defaultRig(s, targetUtil)
	rc.Pop.SpikyFunctions = 0
	rc.Pop.MidnightSpikeFrac = 0
	rc.Pop.DiurnalAmp = 0
	return rc
}

// largestRegion returns the region with the most workers (the
// highest-blast-radius victim).
func largestRegion(p *core.Platform) *core.Region {
	victim := p.Regions()[0]
	for _, reg := range p.Regions() {
		if len(reg.Workers) > len(victim.Workers) {
			victim = reg
		}
	}
	return victim
}

// ackPhase runs the platform for d and returns the ack rate over it.
func ackPhase(p *core.Platform, d time.Duration) float64 {
	before := p.Acked()
	p.Engine.RunFor(d)
	return (p.Acked() - before) / d.Seconds()
}

// timeToRecover steps the simulation until the rolling ack rate reaches
// target, up to max. It returns the elapsed recovery time, the final
// rate, and whether the target was reached.
func timeToRecover(p *core.Platform, target float64, step, max time.Duration) (time.Duration, float64, bool) {
	elapsed := time.Duration(0)
	rate := 0.0
	for elapsed < max {
		rate = ackPhase(p, step)
		elapsed += step
		if rate >= target {
			return elapsed, rate, true
		}
	}
	return elapsed, rate, false
}

// faultRun is a rig warmed up and measured healthy, with its largest
// region picked as the victim: where every fault experiment starts.
type faultRun struct {
	*rig
	victim        *core.Region
	healthy       float64 // ack rate before the fault
	fault, ttrMax time.Duration
}

func startFaultRun(s Scale, rc rigConfig) *faultRun {
	warm, measure, fault, ttrMax := 30*time.Minute, 15*time.Minute, 40*time.Minute, time.Hour
	if s.Quick {
		warm, measure, fault, ttrMax = 20*time.Minute, 10*time.Minute, 20*time.Minute, 40*time.Minute
	}
	rg := rc.build()
	rg.P.Engine.RunFor(warm)
	healthy := ackPhase(rg.P, measure)
	return &faultRun{rg, largestRegion(rg.P), healthy, fault, ttrMax}
}

// reportRecovery runs on until the ack rate is back to ≥90% of healthy,
// then appends the shared dip/recovery rows and the check.
func (f *faultRun) reportRecovery(r *Result, faulted float64) {
	ttr, finalRate, recovered := timeToRecover(f.P, 0.9*f.healthy, 2*time.Minute, f.ttrMax)
	r.row("ack rate healthy → faulted (RPS)", "dips, critical work continues", "%.1f → %.1f", f.healthy, faulted)
	r.row("time to ≥90% of pre-fault ack rate", "recovers after repair", "%v (%.1f RPS)", ttr, finalRate)
	r.check("ack rate recovers to ≥90% of pre-fault", recovered,
		"%.1f vs target %.1f RPS after %v", finalRate, 0.9*f.healthy, ttr)
}

// logEvents appends the injector's fault log (deterministic, virtual-time
// stamped) as notes.
func logEvents(r *Result, inj *chaos.Injector, max int) {
	ev := inj.Events()
	for i, e := range ev {
		if i >= max {
			r.note("… %d more fault events", len(ev)-max)
			return
		}
		r.note("fault: %s", e)
	}
}

func runChaosGray(s Scale, r *Result) {
	f := startFaultRun(s, chaosRig(s, 0.60))
	p, inj, victim, healthy := f.P, f.Inj, f.victim, f.healthy
	k := len(victim.Workers) / 3
	k = max(k, 1)
	const slowdown = 8.0
	for i := 0; i < k; i++ {
		inj.GrayWorker(victim.ID, i, slowdown)
	}
	// Gray detection needs GrayThreshold consecutive slow probes; allow
	// two extra probe intervals of scheduling slack.
	detectWindow := time.Duration(workerlb.GrayThreshold+2) * workerlb.HeartbeatInterval
	p.Engine.RunFor(detectWindow)
	detected := int(victim.LB.DetectedGray.Value())
	r.row("gray workers injected vs detected", "all detected within lag", "%d injected, %d detected in %v",
		k, detected, detectWindow)
	r.check("gray workers detected within detection lag", detected >= k, "%d/%d after %v", detected, k, detectWindow)

	faulted := ackPhase(p, f.fault)
	r.check("LB routes around gray workers (small dip)", faulted > 0.5*healthy,
		"%.1f vs %.1f RPS with %d workers at 1/%.0f speed", faulted, healthy, k, slowdown)

	for i := 0; i < k; i++ {
		inj.ClearGray(victim.ID, i)
	}
	f.reportRecovery(r, faulted)
	r.series("executed calls/min", time.Minute, p.Executed.Values())
	logEvents(r, inj, 8)
}

func runChaosPartition(s Scale, r *Result) {
	f := startFaultRun(s, chaosRig(s, 0.60))
	p, inj, victim, healthy := f.P, f.Inj, f.victim, f.healthy
	crossBefore := core.CountersOf(victim).CrossRegionPulls
	inj.PartitionRegion(victim.ID)
	faulted := ackPhase(p, f.fault)
	crossDuring := core.CountersOf(victim).CrossRegionPulls - crossBefore

	r.row("cross-region pulls by the cut region during partition", "frozen at 0", "%.0f", crossDuring)
	r.check("partition severs cross-region pulls", crossDuring == 0, "%.0f pulls across the cut", crossDuring)
	r.check("both sides keep executing local work", faulted > 0.5*healthy,
		"%.1f vs %.1f RPS during the partition", faulted, healthy)

	ackedAtHeal := victim.Sched.Acked.Value()
	inj.HealPartition(victim.ID)
	f.reportRecovery(r, faulted)
	r.check("cut region resumes after heal", victim.Sched.Acked.Value() > ackedAtHeal,
		"%.0f acks after heal", victim.Sched.Acked.Value()-ackedAtHeal)
	r.series("executed calls/min", time.Minute, p.Executed.Values())
	logEvents(r, inj, 8)
}

func runChaosCorrelated(s Scale, r *Result) {
	f := startFaultRun(s, chaosRig(s, 0.60))
	p, inj, victim := f.P, f.Inj, f.victim
	crashed := inj.CorrelatedCrash(victim.ID, 0.8, true) // silent: only heartbeats can notice
	k := len(crashed)

	// Detection lag plus one probe interval of slack, plus one degradation
	// tick so shedding and the breaker have reacted.
	detectWindow := workerlb.DetectionLag + workerlb.HeartbeatInterval + core.DegradeInterval
	p.Engine.RunFor(detectWindow)

	detectedDown := victim.LB.DetectedDown()
	evacuated := core.CountersOf(victim).Evacuated
	fleetFrac := p.DetectedHealthyFrac()
	r.row("workers crashed vs detected dead", "whole block within detection lag", "%d crashed, %d detected in %v",
		k, detectedDown, detectWindow)
	r.row("leases evacuated after detection", "NACKed for redelivery elsewhere", "%.0f", evacuated)
	r.row("region breaker / fleet healthy frac", "breaker opens, shedding engages", "%s / %.2f",
		p.BreakerState(victim.ID), fleetFrac)

	r.check("dead block detected within detection lag", detectedDown >= k,
		"%d/%d within %v", detectedDown, k, detectWindow)
	r.check("schedulers evacuate leases on detected-dead workers", evacuated > 0,
		"%.0f evacuated", evacuated)
	regionFrac := float64(victim.LB.DetectedHealthy()) / float64(len(victim.Workers))
	r.check("region circuit breaker opens below min healthy frac",
		regionFrac >= core.BreakerMinHealthyFrac || p.BreakerState(victim.ID) == "open",
		"region frac %.2f, breaker %s", regionFrac, p.BreakerState(victim.ID))
	r.check("load shedding engages when fleet degrades past threshold",
		fleetFrac >= core.ShedHealthyFrac || p.Central.Shed() < 1,
		"fleet frac %.2f, shed %.2f", fleetFrac, p.Central.Shed())

	faulted := ackPhase(p, f.fault)
	for _, i := range crashed {
		inj.RestartWorker(victim.ID, i)
	}
	f.reportRecovery(r, faulted)
	r.check("shedding clears after recovery", p.Central.Shed() == 1, "shed %.2f", p.Central.Shed())
	r.series("executed calls/min", time.Minute, p.Executed.Values())
	logEvents(r, inj, 6)
}

func runChaosDQ(s Scale, r *Result) {
	f := startFaultRun(s, chaosRig(s, 0.60))
	p, inj, victim, healthy := f.P, f.Inj, f.victim, f.healthy
	for i := range victim.Shards {
		inj.DownShard(victim.ID, i)
	}
	ackedOnVictimAtCut := core.CountersOf(victim).ShardAcked
	faulted := ackPhase(p, f.fault)
	t := core.CountersOf(p.Regions()...)
	unroutable, routeFailed := t.Unroutable, t.RouteFailed

	r.row("shards down", "one region's whole pool", "%d", len(victim.Shards))
	r.row("submissions lost to routing", "0 — QueueLB routes around", "%.0f unroutable, %.0f failed",
		unroutable, routeFailed)
	r.check("no submission lost while shards are down", unroutable == 0 && routeFailed == 0,
		"unroutable=%.0f routeFailed=%.0f", unroutable, routeFailed)
	r.check("execution continues on surviving shards", faulted > 0.5*healthy,
		"%.1f vs %.1f RPS during the outage", faulted, healthy)

	for i := range victim.Shards {
		inj.UpShard(victim.ID, i)
	}
	f.reportRecovery(r, faulted)
	ackedOnVictimAfter := core.CountersOf(victim).ShardAcked
	r.check("returned shards drain their backlog", ackedOnVictimAfter > ackedOnVictimAtCut,
		"%.0f acks on the victim pool after recovery", ackedOnVictimAfter-ackedOnVictimAtCut)
	r.row("calls generated vs terminal", "at-least-once", "%.0f generated, %.0f acked, %d still queued",
		f.Gen.Generated.Value(), p.Acked(), p.PendingCalls())
	r.series("executed calls/min", time.Minute, p.Executed.Values())
	logEvents(r, inj, 8)
}
