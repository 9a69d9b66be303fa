package experiment

import (
	"time"

	"xfaas/internal/core"
)

func runOutage(s Scale, r *Result) {
	rc := defaultRig(s, 0.60) // a little headroom so survivors can absorb
	rc.Pop.SpikyFunctions = 0
	rc.Pop.MidnightSpikeFrac = 0 // isolate the outage signal
	rig := rc.build()
	p := rig.P

	warm := 30 * time.Minute
	outage := time.Hour
	recovery := time.Hour
	if s.Quick {
		warm, outage, recovery = 20*time.Minute, 40*time.Minute, 40*time.Minute
	}

	healthyRate := ackPhase(p, warm)
	// The largest region goes dark.
	victim := largestRegion(p)
	lostShare := float64(len(victim.Workers)) / float64(p.Topo.TotalWorkers())
	for _, w := range victim.Workers {
		w.Fail()
	}
	outageRate := ackPhase(p, outage)
	for _, w := range victim.Workers {
		w.Recover()
	}
	ackedAtRecovery := victim.Sched.Acked.Value()
	recoveredRate := ackPhase(p, recovery)

	r.row("capacity lost in the outage", "largest region", "%.0f%% (%d workers)", 100*lostShare, len(victim.Workers))
	r.row("ack rate healthy → outage → recovered (RPS)", "degrades gracefully, recovers",
		"%.1f → %.1f → %.1f", healthyRate, outageRate, recoveredRate)
	r.row("calls evacuated by the dead region's scheduler", "redelivered elsewhere", "%.0f",
		victim.Sched.Evacuated.Value())
	r.series("executed calls/min", time.Minute, p.Executed.Values())

	r.check("execution continues through the outage", outageRate > healthyRate*0.4,
		"%.1f vs %.1f RPS", outageRate, healthyRate)
	r.check("dead region holds no work", victim.Sched.Buffered() == 0 || victim.Sched.Acked.Value() > ackedAtRecovery,
		"buffered=%d", victim.Sched.Buffered())
	r.check("recovered region resumes executing", victim.Sched.Acked.Value() > ackedAtRecovery,
		"%.0f > %.0f", victim.Sched.Acked.Value(), ackedAtRecovery)
	r.check("throughput recovers after the region returns", recoveredRate > healthyRate*0.7,
		"%.1f vs %.1f RPS", recoveredRate, healthyRate)
	// No calls lost: everything generated eventually lands terminal
	// (still-pending future-start calls excluded by construction).
	drained := p.Acked() + core.CountersOf(p.Regions()...).DeadLetters
	r.row("calls generated vs terminal", "at-least-once", "%.0f generated, %.0f terminal, %d still queued",
		rig.Gen.Generated.Value(), drained, p.PendingCalls())
}
