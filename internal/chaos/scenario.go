package chaos

import (
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
)

// Op names the fault a Step injects; each is one Injector method.
type Op uint8

const (
	// OpGray slows the region's first N workers (all when N is 0, at most
	// the pool) by Rate.
	OpGray Op = iota
	// OpClearGray restores the same block to full speed.
	OpClearGray
	// OpFlap flips worker N between Rate slowdown and full speed every
	// For, starting For after the step; at Then it stops, healthy.
	OpFlap
	// OpRackCrash silently crashes a contiguous Rate fraction of the
	// region's workers; at Then it restarts them.
	OpRackCrash
	// OpPartition cuts the region off the cross-region fabric.
	OpPartition
	// OpHeal reconnects it.
	OpHeal
	// OpDrain starts the region's evacuation drill.
	OpDrain
	// OpUndrain ends it.
	OpUndrain
	// OpShardOutage takes shard N down; it is back up at Then.
	OpShardOutage
	// OpShardCrash crashes the region's first N shards (all when N is
	// 0), each restarting For later.
	OpShardCrash
	// OpSubmitterCrash crashes the region's normal (N = 0) or spiky
	// (N = 1) submitter.
	OpSubmitterCrash
	// OpSchedulerCrash crashes scheduler replica N.
	OpSchedulerCrash
	// OpBuggy makes Downstream fail a Rate fraction of its requests; the
	// fixed release lands at Then.
	OpBuggy
)

// Step is one fault of a scenario, placed as a fraction of the run so
// every run length goes through inject → detect → recover.
type Step struct {
	// At is when the step fires, as a fraction of the run.
	At float64
	Op Op
	// Region is the target region; -1 is the platform's last one.
	Region int
	// N is the op's worker, shard or replica index, or its block size.
	N int
	// Rate is the slowdown, crashed fraction or bug rate.
	Rate float64
	// Then is the follow-up's delay after the step, as a fraction of the
	// run: the restart, the stop or the repair.
	Then float64
	// For is an absolute duration: the flap period or the shard restart
	// delay.
	For time.Duration
	// Downstream names the service OpBuggy breaks.
	Downstream string
}

// Scenario is a named fault script.
type Scenario struct {
	Name, About string
	Steps       []Step
}

// Arm schedules the scenario's steps on p's engine, in row order, for a
// run of length dur starting now. A step's follow-up is scheduled from
// inside the step, when the step fires.
func (sc Scenario) Arm(p *core.Platform, inj *Injector, dur time.Duration) {
	frac := func(f float64) time.Duration { return time.Duration(float64(dur) * f) }
	for _, s := range sc.Steps {
		reg := cluster.RegionID(s.Region)
		if s.Region < 0 {
			reg = cluster.RegionID(len(p.Regions()) - 1)
		}
		then := frac(s.Then)
		p.Engine.Schedule(frac(s.At), func() { s.fire(p, inj, reg, then) })
	}
}

// block is the number of indices a block op covers in a pool of n.
func (s Step) block(n int) int {
	if s.N == 0 {
		return n
	}
	return min(s.N, n)
}

func (s Step) fire(p *core.Platform, inj *Injector, reg cluster.RegionID, then time.Duration) {
	eng := p.Engine
	switch s.Op {
	case OpGray:
		for i := 0; i < s.block(len(p.Region(reg).Workers)); i++ {
			inj.GrayWorker(reg, i, s.Rate)
		}
	case OpClearGray:
		for i := 0; i < s.block(len(p.Region(reg).Workers)); i++ {
			inj.ClearGray(reg, i)
		}
	case OpFlap:
		slow := false
		ticker := eng.Every(s.For, func() {
			slow = !slow
			if slow {
				inj.GrayWorker(reg, s.N, s.Rate)
			} else {
				inj.ClearGray(reg, s.N)
			}
		})
		eng.Schedule(then, func() {
			ticker.Stop()
			inj.ClearGray(reg, s.N)
		})
	case OpRackCrash:
		picked := inj.CorrelatedCrash(reg, s.Rate, true)
		eng.Schedule(then, func() {
			for _, i := range picked {
				inj.RestartWorker(reg, i)
			}
		})
	case OpPartition:
		inj.PartitionRegion(reg)
	case OpHeal:
		inj.HealPartition(reg)
	case OpDrain:
		inj.DrainRegion(reg)
	case OpUndrain:
		inj.UndrainRegion(reg)
	case OpShardOutage:
		inj.ShardOutage(reg, s.N, then)
	case OpShardCrash:
		for i := 0; i < s.block(len(p.Region(reg).Shards)); i++ {
			inj.ShardCrashRestart(reg, i, s.For)
		}
	case OpSubmitterCrash:
		inj.CrashSubmitter(reg, s.N == 1)
	case OpSchedulerCrash:
		inj.CrashScheduler(reg, s.N)
	case OpBuggy:
		inj.BuggyFor(s.Downstream, s.Rate, then)
	}
}

// Scenarios is the xfaas-inspect fault catalogue; -list prints it in
// this order.
var Scenarios = []Scenario{
	{"gray", "up to three of region 0's workers slow tenfold; health probing routes around them", []Step{
		{At: 0.25, Op: OpGray, N: 3, Rate: 10},
		{At: 0.7, Op: OpClearGray, N: 3},
	}},
	// Subtle degradation: below the probe slowdown threshold, so only
	// exec-time outlier scoring can see it.
	{"graytail", "up to two of region 0's workers slow threefold, under the probe threshold; outlier ejection and hedging recover the tail", []Step{
		{At: 0.25, Op: OpGray, N: 2, Rate: 3},
		{At: 0.7, Op: OpClearGray, N: 2},
	}},
	{"flapping", "one worker crosses the gray threshold every 20 s; probation hysteresis holds routing steady", []Step{
		{At: 0.25, Op: OpFlap, Rate: 8, For: 20 * time.Second, Then: 0.45},
	}},
	{"evacuation", "region 0 drains and undrains; work migrates to peers with zero acked-call loss", []Step{
		{At: 0.3, Op: OpDrain},
		{At: 0.6, Op: OpUndrain},
	}},
	{"partition", "region 1 is cut off from the GTC and cross-region pulls until the heal", []Step{
		{At: 0.25, Op: OpPartition, Region: 1},
		{At: 0.6, Op: OpHeal, Region: 1},
	}},
	{"correlated", "a quarter of region 0's workers die silently as one block, then restart", []Step{
		{At: 0.3, Op: OpRackCrash, Rate: 0.25, Then: 0.4},
	}},
	{"dq", "one of region 0's DurableQ shards is unavailable for a fifth of the run; QueueLBs route around it", []Step{
		{At: 0.25, Op: OpShardOutage, Then: 0.2},
	}},
	{"shardcrash", "every shard in region 0 crashes and replays its journal after 30 s down", []Step{
		{At: 0.3, Op: OpShardCrash, For: 30 * time.Second},
	}},
	{"submittercrash", "region 0's normal, then its spiky submitter crash, losing their unflushed batches, and restart", []Step{
		{At: 0.3, Op: OpSubmitterCrash},
		{At: 0.6, Op: OpSubmitterCrash, N: 1},
	}},
	{"schedcrash", "one of region 0's schedulers crashes; its orphaned leases expire back to the shards", []Step{
		{At: 0.3, Op: OpSchedulerCrash},
	}},
	{"retrystorm", "the backend fails every call for 40% of the run; retry budgets dead-letter the doomed work", []Step{
		{At: 0.25, Op: OpBuggy, Rate: 1, Then: 0.4, Downstream: "backend"},
	}},
}

// Lookup returns the catalogue scenario with this name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
