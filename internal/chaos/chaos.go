// Package chaos is the platform's deterministic fault-injection engine.
// It drives every failure mode the paper's robustness story depends on —
// worker crashes and restarts, gray failures (a worker silently running
// at a fraction of its speed), region partitions, DurableQ shard
// unavailability and crashes, submitter and scheduler crashes, buggy
// downstream releases, and correlated failures taking out a whole rack at
// once — as events on the simulation engine,
// drawn from a seeded RNG stream. The same seed always yields the same
// fault schedule, so a chaos run is as reproducible as a healthy one.
//
// Injection is deliberately one-way: the injector flips component state
// (Worker.FailSilent, Shard.SetDown, …) and never tells the control plane
// what it did. Schedulers, the WorkerLB and the GTC must discover faults
// through the heartbeat health protocol and react — detection lag and
// recovery shape are the quantities under test.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/submitter"
)

// Event is one injected fault or repair, logged for experiment reports
// and determinism checks.
type Event struct {
	At     sim.Time
	Kind   string
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%9.1fs %-16s %s", e.At.Seconds(), e.Kind, e.Detail)
}

// Injector applies faults to a platform. All methods act at the current
// virtual time; compose them with the engine's timers for scheduled
// injection. Not safe for concurrent use (the simulation is
// single-threaded).
type Injector struct {
	p      *core.Platform
	src    *rng.Source
	events []Event
}

// NewInjector returns an injector over the platform drawing from src.
// Pass a split of the platform seed (or any fixed seed) — never a
// time-seeded source — to keep fault schedules reproducible.
func NewInjector(p *core.Platform, src *rng.Source) *Injector {
	return &Injector{p: p, src: src}
}

// Events returns the log of injected faults in time order.
func (inj *Injector) Events() []Event { return inj.events }

func (inj *Injector) record(kind, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	inj.events = append(inj.events, Event{
		At:     inj.p.Engine.Now(),
		Kind:   kind,
		Detail: detail,
	})
	// Forward to the platform's control-plane event log so injected
	// faults have a durable, queryable record (httpapi /events) next to
	// the reactions they trigger (breaker flips, health transitions).
	inj.p.Obs.Control("chaos."+kind, detail)
	// Tag the invariant checker too: any violation that follows carries
	// the active fault as its context.
	inj.p.Obs.Note("chaos."+kind, detail)
}

// CrashWorker kills one worker. Silent crashes (power loss, kernel hang)
// drop in-flight calls without notifying anyone — only heartbeat
// detection recovers their leases. Loud crashes (process exit) deliver
// connection resets to in-flight callers.
func (inj *Injector) CrashWorker(region cluster.RegionID, idx int, silent bool) {
	w := inj.p.Region(region).Workers[idx]
	if silent {
		w.FailSilent()
	} else {
		w.Fail()
	}
	inj.record("crash", "worker %v silent=%v", w.ID, silent)
}

// RestartWorker brings a crashed worker back empty (fresh process: no JIT
// cache, no running calls).
func (inj *Injector) RestartWorker(region cluster.RegionID, idx int) {
	w := inj.p.Region(region).Workers[idx]
	w.Recover()
	inj.record("restart", "worker %v", w.ID)
}

// GrayWorker degrades one worker to run at 1/slowdown of its healthy
// speed without failing it — the classic gray failure (thermal
// throttling, a sick disk, a noisy neighbor). slowdown must be >= 1;
// e.g. 10 models a worker at 10% speed.
func (inj *Injector) GrayWorker(region cluster.RegionID, idx int, slowdown float64) {
	w := inj.p.Region(region).Workers[idx]
	w.SetSlowdown(slowdown)
	inj.record("gray", "worker %v slowdown=%.1fx", w.ID, slowdown)
}

// ClearGray restores a gray worker to full speed.
func (inj *Injector) ClearGray(region cluster.RegionID, idx int) {
	w := inj.p.Region(region).Workers[idx]
	w.SetSlowdown(1)
	inj.record("gray-clear", "worker %v", w.ID)
}

// CorrelatedCrash takes out a contiguous block of frac of the region's
// workers at one instant — a rack or power domain failing as a unit. The
// block's start is drawn from src; indices are returned in ascending
// order. Correlated failures are the hard case for detection: the
// heartbeat prober must mark the whole block dead within the same
// detection window, not trickle through it.
func (inj *Injector) CorrelatedCrash(region cluster.RegionID, frac float64, silent bool) []int {
	pool := inj.p.Region(region).Workers
	n := len(pool)
	k := min(max(int(frac*float64(n)+0.5), 1), n)
	start := inj.src.Intn(n)
	picked := make([]int, 0, k)
	for i := 0; i < k; i++ {
		picked = append(picked, (start+i)%n)
	}
	sort.Ints(picked)
	inj.record("rack-crash", "region %d block [%d..+%d) silent=%v", region, start, k, silent)
	for _, i := range picked {
		inj.CrashWorker(region, i, silent)
	}
	return picked
}

// PartitionRegion severs the region from the cross-region fabric: the
// GTC stops seeing it and schedulers on both sides stop pulling across
// the cut. Intra-region traffic continues.
func (inj *Injector) PartitionRegion(region cluster.RegionID) {
	inj.p.SetRegionPartitioned(region, true)
	inj.record("partition", "region %d cut off", region)
}

// HealPartition reconnects a partitioned region.
func (inj *Injector) HealPartition(region cluster.RegionID) {
	inj.p.SetRegionPartitioned(region, false)
	inj.record("partition-heal", "region %d reconnected", region)
}

// DrainRegion starts the regional evacuation drill: admission stops
// (QueueLBs reroute new submissions to peers), the region's schedulers
// park and release held work, queued CritHigh calls migrate to peer
// regions, and the drain controller reports the RTO when the region
// quiesces.
func (inj *Injector) DrainRegion(region cluster.RegionID) {
	inj.p.Drainer.Drain(int(region))
	inj.record("drain", "region %d evacuating", region)
}

// UndrainRegion ends the drill: admission and scheduling resume, and the
// region's time-shifted backlog drains through normal polling.
func (inj *Injector) UndrainRegion(region cluster.RegionID) {
	inj.p.Drainer.Undrain(int(region))
	inj.record("undrain", "region %d resumed", region)
}

// DownShard starts an unavailability window on one DurableQ shard:
// enqueue, poll, ack, nack and renew all fail until UpShard. Durable
// state survives; leases that expire during the window redeliver after
// it (at-least-once).
func (inj *Injector) DownShard(region cluster.RegionID, idx int) {
	sh := inj.p.Region(region).Shards[idx]
	sh.SetDown(true)
	inj.record("shard-down", "%v", sh.ID)
}

// UpShard ends a shard's unavailability window.
func (inj *Injector) UpShard(region cluster.RegionID, idx int) {
	sh := inj.p.Region(region).Shards[idx]
	sh.SetDown(false)
	inj.record("shard-up", "%v", sh.ID)
}

// ShardOutage downs the shard now and schedules its return after d.
func (inj *Injector) ShardOutage(region cluster.RegionID, idx int, d time.Duration) {
	inj.DownShard(region, idx)
	inj.p.Engine.Schedule(d, func() { inj.UpShard(region, idx) })
}

// ShardCrashRestart destroys a DurableQ shard's in-memory state —
// queues, leases, timers — unlike DownShard's state-preserving
// unavailability window, and starts its recovery after downFor: after its
// replay base delay the shard replays the journal's durable prefix in
// batches and comes back up. With journaling enabled only the unflushed
// tail is lost; without it every held call dies. Recovery time is
// observable as the gap between the shard-restart event and the shard's
// durableq.replay-end control event.
func (inj *Injector) ShardCrashRestart(region cluster.RegionID, idx int, downFor time.Duration) {
	sh := inj.p.Region(region).Shards[idx]
	held := sh.Pending() + sh.Leased()
	sh.Crash()
	inj.record("shard-crash", "%v held=%d lost=%d held-durable=%d",
		sh.ID, held, int(sh.LostOnCrash.Value()), sh.CrashHeld())
	inj.p.Engine.Schedule(downFor, func() {
		sh.Restart()
		inj.record("shard-restart", "%v", sh.ID)
	})
}

// Rebuild delays of the stateless tiers: their state reconstitutes from
// live shards and the config store.
const (
	// SchedulerRebuildDelay is how long a crashed scheduler replica takes
	// to restart before it resumes polling.
	SchedulerRebuildDelay time.Duration = 5 * time.Second
	// SubmitterRebuildDelay is the same for a crashed submitter; only the
	// unflushed batch window dies with the process.
	SubmitterRebuildDelay time.Duration = time.Second
)

// CrashSubmitter kills one of the region's submitters (pool: "normal" or
// "spiky"): its unflushed batch buffer — calls accepted but not yet
// persisted — is terminally lost, and submissions fail until
// SubmitterRebuildDelay elapses.
func (inj *Injector) CrashSubmitter(region cluster.RegionID, spiky bool) {
	s := inj.submitter(region, spiky)
	buffered := s.BatchLen()
	s.Crash()
	s.Restart(SubmitterRebuildDelay)
	inj.record("submitter-crash", "r%d spiky=%v lost=%d", region, spiky, buffered)
}

func (inj *Injector) submitter(region cluster.RegionID, spiky bool) *submitter.Submitter {
	if spiky {
		return inj.p.Region(region).Spiky
	}
	return inj.p.Region(region).Normal
}

// CrashScheduler kills scheduler replica idx of the region: its buffers,
// run queue and lease tracking vanish, orphaning the DurableQ leases it
// held — they redeliver after LeaseTimeout, the dominant term in the
// scheduler-crash recovery time. The replica restarts stateless after
// SchedulerRebuildDelay.
func (inj *Injector) CrashScheduler(region cluster.RegionID, idx int) {
	sc := inj.p.Region(region).Scheds[idx]
	sc.Crash()
	sc.Restart(SchedulerRebuildDelay)
	inj.record("scheduler-crash", "r%d replica=%d", region, idx)
}

// Buggy makes a downstream service fail a fraction of its requests with
// plain (retryable) errors — the §5.5 incident's buggy release. Unlike a
// capacity cut's back-pressure, which workers honor immediately without
// retrying, plain failures are retried downstream and platform-wide,
// amplifying load: the retry-storm trigger. Returns a repair function
// restoring the healthy service; panics on an unknown name.
func (inj *Injector) Buggy(name string, rate float64) (restore func()) {
	svc, ok := inj.p.Downstreams.Get(name)
	if !ok {
		panic("chaos: unknown downstream " + name)
	}
	svc.SetBugRate(rate)
	inj.record("buggy", "%s bug rate %.2f", name, rate)
	return func() {
		svc.SetBugRate(0)
		inj.record("buggy-heal", "%s bug rate restored to 0", name)
	}
}

// BuggyFor injects the bug now and schedules the fixed release after d.
func (inj *Injector) BuggyFor(name string, rate float64, d time.Duration) {
	restore := inj.Buggy(name, rate)
	inj.p.Engine.Schedule(d, restore)
}
