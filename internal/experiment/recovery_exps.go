package experiment

import (
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/sim"
	"xfaas/internal/submitter"
)

// The recovery experiments exercise the durability layer end to end:
// crash a journaled DurableQ shard, a submitter or a scheduler replica,
// measure the recovery time objective (crash to replay-end / service
// resumption), the duplicate-execution rate at-least-once delivery
// implies, and the loss window as a function of the journal flush lag.
// Invariant checking is forced on for every recovery rig so the
// conservation ledger — including the "no acked call is ever lost"
// probe — audits the whole run.

// recoveryRig is chaosRig with journaling at the given flush lag and
// invariant checking forced on (the conservation ledger is part of what
// these experiments assert, not an optional CI extra).
func recoveryRig(s Scale, targetUtil float64, flushLag time.Duration) rigConfig {
	rc := chaosRig(s, targetUtil)
	rc.Seeds = recoverySeeds
	rc.Platform.Durability.JournalEnabled = true
	rc.Platform.Durability.FlushLag = flushLag
	rc.Platform.Invariants.Enabled = true
	return rc
}

// lastControlAfter scans the control-plane event ring for events of kind
// at or after t, returning the latest timestamp and the count seen.
func lastControlAfter(p *core.Platform, kind string, t sim.Time) (sim.Time, int) {
	var last sim.Time
	n := 0
	for _, e := range p.Tracer.Controls() {
		if e.Kind == kind && e.At >= t {
			n++
			last = max(last, e.At)
		}
	}
	return last, n
}

// ledgerCheck appends the conservation-closure and zero-violation checks
// shared by every recovery experiment: Submitted + Resurrected must equal
// Acked + DeadLettered + Dropped + Lost + InFlight, and the continuous
// probes — including "no acked call is ever lost" — must never have
// fired.
func ledgerCheck(r *Result, p *core.Platform) {
	t := p.Inv.Totals()
	r.row("conservation ledger", "closed across crashes and restarts",
		"submitted=%d resurrected=%d acked=%d dead=%d dropped=%d lost=%d inflight=%d",
		t.Submitted, t.Resurrected, t.Acked, t.DeadLettered, t.Dropped, t.Lost, t.InFlight)
	r.check("conservation closure holds across restarts", t.Gap() == 0, "gap=%d", t.Gap())
	viol := p.Inv.TotalViolations()
	detail := "all probes quiet"
	if vs := p.Inv.Final(); len(vs) > 0 {
		detail = vs[0].String()
	}
	r.check("no acked call is ever lost (zero invariant violations)", viol == 0,
		"%d violations; %s", viol, detail)
}

func runChaosShardCrash(s Scale, r *Result) {
	flushLag := core.DefaultConfig().Durability.FlushLag
	f := startFaultRun(s, recoveryRig(s, 0.60, flushLag))
	p, inj, victim := f.P, f.Inj, f.victim
	before := core.CountersOf(victim)
	held := before.Pending + before.Leased
	resurrectedBefore := p.Inv.Totals().Resurrected
	crashAt := p.Engine.Now()
	const downFor = 30 * time.Second
	for i := range victim.Shards {
		inj.ShardCrashRestart(victim.ID, i, downFor)
	}
	lost := core.CountersOf(victim).ShardLost

	// Let the restarts and journal replays finish, then read the RTO off
	// the control-plane event log before the ring evicts it.
	p.Engine.RunFor(downFor + 2*time.Minute)
	replayEnd, replaysDone := lastControlAfter(p, "durableq.replay-end", crashAt)
	rto := replayEnd - crashAt
	replayed := core.CountersOf(victim).Replayed

	r.row("calls held by the crashed shards", "journal bounds the loss", "%d held, %.0f lost, %.0f replayed",
		held, lost, replayed)
	r.check("journal loses only the unflushed tail", lost < float64(held)/2 && replayed > 0,
		"%.0f of %d held lost (flush lag %s), %.0f replayed", lost, held, flushLag, replayed)
	r.row("recovery time objective (crash -> last replay-end)", "restart delay + replay", "%v (%d/%d shards replayed)",
		rto, replaysDone, len(victim.Shards))
	r.check("every crashed shard replays its journal", replaysDone == len(victim.Shards),
		"%d of %d replay-end events within %v", replaysDone, len(victim.Shards), downFor+2*time.Minute)

	faulted := ackPhase(p, f.fault)
	f.reportRecovery(r, faulted)

	t := core.CountersOf(victim)
	replayed, dups := t.Replayed, t.DupSuppressed
	resurrected := p.Inv.Totals().Resurrected - resurrectedBefore
	dupRate := 0.0
	if replayed > 0 {
		dupRate = (dups + float64(resurrected)) / replayed
	}
	r.row("duplicate deliveries among replayed calls", "at-least-once, mostly exactly-once",
		"%.0f suppressed + %d resurrected of %.0f replayed (rate %.3f)", dups, resurrected, replayed, dupRate)
	ledgerCheck(r, p)
	logEvents(r, inj, 10)
}

// stepUntilBatched fires events one at a time, for at most one simulated
// minute, until sub's flush batch holds a call. A crash on the flush grid
// (a whole minute, say) meets an empty batch and loses nothing.
func stepUntilBatched(e *sim.Engine, sub *submitter.Submitter) {
	for end := e.Now() + time.Minute; sub.BatchLen() == 0 && e.Now() < end && e.Step(); {
	}
}

func runChaosSubmitterCrash(s Scale, r *Result) {
	f := startFaultRun(s, recoveryRig(s, 0.60, core.DefaultConfig().Durability.FlushLag))
	p, inj, victim := f.P, f.Inj, f.victim
	sub := victim.Normal
	stepUntilBatched(p.Engine, sub)
	buffered := sub.BatchLen()
	inj.CrashSubmitter(victim.ID, false)
	lost := sub.LostOnCrash.Value()
	rebuild := chaos.SubmitterRebuildDelay

	r.row("unflushed batch at crash", "the only loss window", "%d buffered, %.0f lost", buffered, lost)
	r.check("the crash caught at least one buffered call", buffered > 0, "%d buffered", buffered)
	r.check("loss is exactly the unflushed window", lost == float64(buffered),
		"lost %.0f vs %d buffered", lost, buffered)

	p.Engine.RunFor(rebuild + time.Second)
	r.row("recovery time objective (rebuild delay)", "stateless restart", "%v", rebuild)
	r.check("submitter back up after its rebuild delay", !sub.IsDown(),
		"down=%v after %v", sub.IsDown(), rebuild+time.Second)

	faulted := ackPhase(p, f.fault)
	f.reportRecovery(r, faulted)
	ledgerCheck(r, p)
	logEvents(r, inj, 8)
}

func runChaosSchedCrash(s Scale, r *Result) {
	f := startFaultRun(s, recoveryRig(s, 0.60, core.DefaultConfig().Durability.FlushLag))
	p, inj, victim := f.P, f.Inj, f.victim
	sc := victim.Scheds[0]
	orphaned := sc.Buffered() + sc.RunQLen()
	redeliveredBefore := core.CountersOf(victim).Redelivered
	inj.CrashScheduler(victim.ID, 0)
	rebuild := chaos.SchedulerRebuildDelay
	lease := core.DefaultConfig().LeaseTimeout

	p.Engine.RunFor(rebuild + time.Second)
	r.check("replica back up after its rebuild delay", !sc.IsDown(),
		"down=%v after %v", sc.IsDown(), rebuild+time.Second)

	// The orphaned leases redeliver once the lease timeout passes.
	p.Engine.RunFor(lease + time.Minute)
	redelivered := core.CountersOf(victim).Redelivered - redeliveredBefore
	r.row("scheduler state destroyed at crash", "rebuilt by polling, not recovered",
		"%d buffered+runq calls, leases orphaned", orphaned)
	r.row("recovery time objective", "rebuild delay + lease timeout", "%v + %v", rebuild, lease)
	r.check("orphaned leases expire and redeliver", redelivered > 0,
		"%.0f redeliveries within %v of the crash", redelivered, rebuild+lease+time.Minute+time.Second)

	faulted := ackPhase(p, f.fault)
	f.reportRecovery(r, faulted)
	ledgerCheck(r, p)
	logEvents(r, inj, 8)
}

func runRecoveryFlushLag(s Scale, r *Result) {
	lags := []time.Duration{0, 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second}
	warm := 10 * time.Minute
	drain := 10 * time.Minute
	if !s.Quick {
		warm, drain = 20*time.Minute, 20*time.Minute
	}

	losses := make([]float64, len(lags))
	for i, lag := range lags {
		// Same seed every pass: the journal is a passive observer, so the
		// platform reaches an identical state at the crash instant and the
		// lag is the only variable.
		rg := recoveryRig(s, 0.60, lag).build()
		p, inj := rg.P, rg.Inj
		p.Engine.RunFor(warm)
		victim := largestRegion(p)
		before := core.CountersOf(victim)
		held := before.Pending + before.Leased
		for j := range victim.Shards {
			inj.ShardCrashRestart(victim.ID, j, 10*time.Second)
		}
		p.Engine.RunFor(drain)
		vt := core.CountersOf(victim)
		lost, replayed, dups := vt.ShardLost, vt.Replayed, vt.DupSuppressed
		losses[i] = lost
		t := p.Inv.Totals()
		r.row("flush lag "+lag.String(), "loss grows with the lag",
			"held=%d lost=%.0f replayed=%.0f dups=%.0f gap=%d violations=%d",
			held, lost, replayed, dups, t.Gap(), p.Inv.TotalViolations())
		if t.Gap() != 0 || p.Inv.TotalViolations() != 0 {
			r.check("ledger closed at lag "+lag.String(), false,
				"gap=%d violations=%d", t.Gap(), p.Inv.TotalViolations())
		}
	}

	r.check("synchronous journaling loses nothing", losses[0] == 0, "%.0f lost at lag 0", losses[0])
	monotone := true
	for i := 1; i < len(losses); i++ {
		if losses[i] < losses[i-1] {
			monotone = false
		}
	}
	r.check("loss is monotone in the flush lag", monotone, "losses %v across lags %v", losses, lags)
}
