// Package drain implements the regional drain controller: a staged,
// clock-driven evacuation of one region — the library version of the
// operational drill hyperscalers run before planned maintenance. The
// stages, all on the sim clock:
//
//  1. Stop admitting: every QueueLB asks the controller whether a region
//     drains, so the normal shard-selection fallback chain reroutes new
//     submissions to peer regions without failing a single client.
//  2. Release (after stageDelay): the region's scheduler replicas stop
//     their tick pipelines and gracefully hand held-but-not-executing
//     calls back to their DurableQ shards (Shard.Release — no failure,
//     no retry accounting). Executions already on workers run to
//     completion and ack normally, so a drain never loses acked work.
//  3. Migrate: queued CritHigh calls are extracted from the region's
//     shards in batches and adopted by peer-region shards (round-robin),
//     so site-critical work keeps executing during the outage window.
//     Deferrable (below-CritHigh) work stays durably queued in place —
//     time-shifted until the region undrains, exactly like the paper's
//     delay-tolerant pipelines.
//  4. Quiesce: the controller polls until no call is in flight on the
//     region's schedulers or workers and reports the drain RTO —
//     evacuation start to quiet — on the control event log. If the region
//     is still busy at quiesceTimeout it raises drain.timeout once (the
//     operator's alarm) but keeps polling, so a long-running execution
//     can still finish and the RTO is still reported.
//
// Undrain reverses the flag and resumes the region's schedulers; the
// time-shifted backlog drains through the normal polling machinery.
package drain

import (
	"fmt"
	"slices"
	"time"

	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/worker"
)

const (
	// stageDelay is the pause between evacuation stages (admission stop →
	// migration → quiesce), modeling staged rollout of the drain config.
	stageDelay time.Duration = 10 * time.Second
	// quiesceTimeout bounds the final stage: the drain raises its alarm
	// at this point if the region is still busy.
	quiesceTimeout time.Duration = 10 * time.Minute
	// checkInterval is the quiescence re-check cadence.
	checkInterval time.Duration = 5 * time.Second
	// migrateBatchSize is the maximum queued CritHigh calls moved per
	// shard per migration pass (the pass repeats every checkInterval
	// until the backlog is empty).
	migrateBatchSize int = 256
)

// RegionView is the controller's handle on one region's components.
type RegionView struct {
	Shards  []*durableq.Shard
	Scheds  []*scheduler.Scheduler
	Workers []*worker.Worker
}

// regionState tracks one region's drain in progress.
type regionState struct {
	draining   bool
	quiesced   bool
	timedOut   bool
	startedAt  sim.Time
	quiescedAt sim.Time
	migrated   int
	rr         int // round-robin cursor over peer shards
	ticker     *sim.Ticker
}

// Controller drives regional drains. One per platform; construction is
// free of RNG and scheduling, so it exists on every platform.
type Controller struct {
	engine  *sim.Engine
	regions []RegionView
	states  []regionState
	scratch []*function.Call
	peers   []*durableq.Shard

	// Obs receives the drill's control events and ledger notes.
	Obs *lifecycle.Spine

	// Drains counts evacuations started; Migrated counts calls moved to
	// peer-region shards across all drains.
	Drains   stats.Counter
	Migrated stats.Counter
}

// NewController returns a drain controller over the platform's regions.
func NewController(engine *sim.Engine, regions []RegionView) *Controller {
	return &Controller{
		engine:  engine,
		regions: regions,
		states:  make([]regionState, len(regions)),
	}
}

// Drain starts evacuating a region. No-op if the region is already
// draining.
func (d *Controller) Drain(region int) {
	if region < 0 || region >= len(d.states) {
		return
	}
	st := &d.states[region]
	if st.draining {
		return
	}
	*st = regionState{draining: true, startedAt: d.engine.Now()}
	d.Drains.Inc()
	d.Obs.Control("drain.begin", fmt.Sprintf("r%d admit-stopped", region))
	d.Obs.Note("drain", fmt.Sprintf("r%d", region))
	d.engine.Schedule(stageDelay, func() { d.stageRelease(region) })
}

// Undrain ends a region's evacuation: admission and scheduling resume,
// and the time-shifted backlog drains through normal polling.
func (d *Controller) Undrain(region int) {
	if region < 0 || region >= len(d.states) {
		return
	}
	st := &d.states[region]
	if !st.draining {
		return
	}
	st.draining = false
	if st.ticker != nil {
		st.ticker.Stop()
		st.ticker = nil
	}
	for _, sc := range d.regions[region].Scheds {
		sc.SetDraining(false)
	}
	d.Obs.Control("drain.end", fmt.Sprintf("r%d migrated=%d", region, st.migrated))
}

// stageRelease is stage 2: stop the region's scheduler pipelines (each
// replica releases its held leases back to the shards) and start the
// migrate/quiesce pump.
func (d *Controller) stageRelease(region int) {
	st := &d.states[region]
	if !st.draining {
		return // undrained before the stage fired
	}
	for _, sc := range d.regions[region].Scheds {
		sc.SetDraining(true)
	}
	d.Obs.Control("drain.released", fmt.Sprintf("r%d schedulers parked", region))
	st.ticker = d.engine.Every(checkInterval, func() { d.pump(region) })
}

// pump runs every checkInterval during a drain: migrate a batch of
// queued CritHigh calls to peer regions, then — once migration runs dry —
// check for quiesce and report the RTO.
func (d *Controller) pump(region int) {
	st := &d.states[region]
	if !st.draining {
		return
	}
	n := d.migrateBatch(region, st)
	if n > 0 {
		st.migrated += n
		d.Migrated.Add(float64(n))
		d.Obs.Control("drain.migrated",
			fmt.Sprintf("r%d n=%d total=%d", region, n, st.migrated))
		return
	}
	now := d.engine.Now()
	if d.quiet(region) {
		st.quiesced = true
		st.quiescedAt = now
		st.ticker.Stop()
		st.ticker = nil
		d.Obs.Control("drain.quiesced",
			fmt.Sprintf("r%d rto=%s migrated=%d", region, now-st.startedAt, st.migrated))
		return
	}
	// Past the timeout the controller alarms once but keeps polling: a
	// long-running execution (the default population's tail reaches tens
	// of minutes) must still be allowed to finish and the RTO must still
	// be reported when the region finally quiets.
	if !st.timedOut && now-st.startedAt >= quiesceTimeout {
		st.timedOut = true
		d.Obs.Control("drain.timeout",
			fmt.Sprintf("r%d still busy after %s", region, now-st.startedAt))
	}
}

// critHigh is the migration filter: only site-critical work moves;
// everything below time-shifts in place.
func critHigh(c *function.Call) bool {
	return c.Spec.Criticality >= function.CritHigh
}

// migrateBatch extracts up to migrateBatchSize CritHigh calls per shard of
// the draining region and adopts them round-robin across peer-region
// shards (index order — deterministic). Returns the number moved.
func (d *Controller) migrateBatch(region int, st *regionState) int {
	peers := d.peers[:0]
	for r := range d.regions {
		if r == region || d.states[r].draining {
			continue
		}
		for _, sh := range d.regions[r].Shards {
			if !sh.IsDown() {
				peers = append(peers, sh)
			}
		}
	}
	d.peers = peers
	if len(peers) == 0 {
		return 0
	}
	moved := 0
	for _, sh := range d.regions[region].Shards {
		calls := sh.DrainExtract(d.scratch[:0], migrateBatchSize, critHigh)
		for _, c := range calls {
			dst := peers[st.rr%len(peers)]
			st.rr++
			if dst.AdoptDrained(c) {
				moved++
				continue
			}
			// The peer went down this instant; the source shard is up (we
			// just extracted from it), so restore the call there.
			sh.AdoptDrained(c)
		}
		d.scratch = calls[:0]
	}
	return moved
}

// quiet reports whether the region has no work in flight: every
// scheduler's in-flight ledger empty and every worker idle.
func (d *Controller) quiet(region int) bool {
	reg := d.regions[region]
	return !slices.ContainsFunc(reg.Scheds, func(sc *scheduler.Scheduler) bool { return sc.InFlight() > 0 }) &&
		!slices.ContainsFunc(reg.Workers, func(w *worker.Worker) bool { return w.Running() > 0 })
}

// Draining reports whether a region is under evacuation: the one record
// of it, which the QueueLBs and the conductor's snapshot consult.
func (d *Controller) Draining(region int) bool {
	if region < 0 || region >= len(d.states) {
		return false
	}
	return d.states[region].draining
}

// Quiesced reports whether the region's last drain reached quiet.
func (d *Controller) Quiesced(region int) bool {
	if region < 0 || region >= len(d.states) {
		return false
	}
	return d.states[region].quiesced
}

// LastRTO returns the last drain's recovery-time objective — evacuation
// start to quiesce — and whether the region ever quiesced.
func (d *Controller) LastRTO(region int) (time.Duration, bool) {
	if region < 0 || region >= len(d.states) {
		return 0, false
	}
	st := &d.states[region]
	if !st.quiesced {
		return 0, false
	}
	return st.quiescedAt - st.startedAt, true
}

// MigratedCalls returns how many calls the region's drains moved to
// peers.
func (d *Controller) MigratedCalls(region int) int {
	if region < 0 || region >= len(d.states) {
		return 0
	}
	return d.states[region].migrated
}
