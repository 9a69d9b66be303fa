package experiment

import (
	"math"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

// The resilience experiments drive the overload machinery end to end:
// retry budgets against a retry storm, queue-delay shedding against a
// noisy neighbor, deadline expiry sweeping against doomed backlogs, and
// the deferral path against the paper's midnight spike and spiky client.
// Each scenario reports goodput, retry amplification, shed/expiry rates
// and dead-letter reasons, and where the mechanism is the difference the
// experiment runs the same workload with resilience off and on.

// amplification is deliveries per unique enqueued call: 1 means every
// call was delivered exactly once.
func amplification(t core.Counters) float64 {
	if t.Enqueued == 0 {
		return 1
	}
	return (t.Enqueued + t.Redelivered) / t.Enqueued
}

// stormRig is the retry-storm scenario's fleet and workload: four workers,
// the storm mix, and the downstream the aggressors hammer. The experiment
// and the policy matrix both start from it.
func stormRig(s Scale, mix workload.StormMixConfig) rigConfig {
	rc := smallFleet(s, 1, 4)
	rc.Seeds = stormSeeds
	// Exceptions are not cheap during a storm: a failed invocation
	// occupies the worker for its full duration.
	rc.Platform.Worker.FailureSlowdown = 1.0
	rc.Platform.Downstreams = []core.DownstreamSpec{{Name: mix.Downstream, CapacityRPS: 5000}}
	rc.Fill = func(pop *workload.Population, seed uint64) {
		workload.BuildStormMix(pop, mix, rng.New(seed))
	}
	return rc
}

func runChaosRetryStorm(s Scale, r *Result) {
	warm, storm, tail, heal := 5*time.Minute, 25*time.Minute, 10*time.Minute, 15*time.Minute
	if !s.Quick {
		warm, storm, tail, heal = 10*time.Minute, 40*time.Minute, 15*time.Minute, 25*time.Minute
	}
	mix := workload.DefaultStormMix("backend")
	cleanRPS := mix.CleanRPSPerFunc * float64(mix.CleanFunctions)

	type outcome struct {
		healthy, during, after float64 // clean-cohort goodput fractions
		t                      core.Counters
		executed               []float64
	}
	run := func(enabled bool) outcome {
		rc := stormRig(s, mix)
		if enabled {
			rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
		}
		rg := rc.build()
		p, inj := rg.P, rg.Inj
		for _, reg := range p.Regions() {
			for _, sh := range reg.Shards {
				// A tight backoff cap makes the orbit revisit quickly —
				// the worst case for the fleet, the best case for a
				// compact experiment window.
				sh.BackoffCap = 45 * time.Second
			}
		}
		var cleanDone float64
		p.AddOnExecuted(func(c *function.Call) {
			if c.Spec.Team != "team-storm" {
				cleanDone++
			}
		})

		goodput := func(d time.Duration) float64 {
			before := cleanDone
			p.Engine.RunFor(d)
			return (cleanDone - before) / (cleanRPS * d.Seconds())
		}
		healthy := goodput(warm)
		restore := inj.Buggy("backend", 1.0)
		p.Engine.RunFor(storm - tail)
		during := goodput(tail)
		restore()
		after := goodput(heal)
		return outcome{healthy, during, after, core.CountersOf(p.Regions()...), p.Executed.Values()}
	}

	off := run(false)
	on := run(true)
	// The budget bound: redeliveries can spend at most the earned budget
	// (β per first-attempt success) plus the per-function burst allowance
	// on every shard.
	burstAllowance := durableq.DefaultBudgetBurst * float64(on.t.Shards) *
		float64(mix.StormFunctions+mix.CleanFunctions)
	ampBound := 1 + durableq.DefaultBudgetRatio + burstAllowance/math.Max(1, on.t.Enqueued)

	r.row("clean goodput healthy (off/on)", "~1", "%.2f / %.2f", off.healthy, on.healthy)
	r.row("clean goodput during storm (off/on)", "collapses vs holds", "%.2f / %.2f", off.during, on.during)
	r.row("clean goodput after heal (off/on)", "recovers", "%.2f / %.2f", off.after, on.after)
	r.row("retry amplification (off/on)", "unbounded vs ≤1+β", "%.2f / %.3f",
		amplification(off.t), amplification(on.t))
	r.row("dead-letter reasons with budgets", "mostly budget", "exhausted=%.0f expired=%.0f budget=%.0f shed=%.0f",
		on.t.DeadExhausted, on.t.DeadExpired, on.t.DeadBudget, on.t.DeadShed)

	r.check("unbudgeted retry storm starves the clean cohort", off.during < 0.2,
		"clean goodput %.2f of offered during the storm without budgets", off.during)
	r.check("budgets keep clean goodput through the storm", on.during >= 0.7,
		"clean goodput %.2f of offered with budgets+shedding+expiry on", on.during)
	r.check("retry amplification respects the budget bound", amplification(on.t) <= ampBound+1e-9,
		"%.3f vs bound %.3f (1+β plus burst allowance)", amplification(on.t), ampBound)
	r.check("budgets collapse redelivery volume", off.t.Redelivered > 5*on.t.Redelivered,
		"%.0f unbudgeted redeliveries vs %.0f budgeted", off.t.Redelivered, on.t.Redelivered)
	r.check("doomed retries are dead-lettered under the budget reason", on.t.DeadBudget > 0,
		"%.0f budget dead-letters", on.t.DeadBudget)
	r.check("clean traffic recovers after the heal (budgets on)", on.after >= 0.7,
		"%.2f of offered over the heal window", on.after)

	r.series("executed/min (resilience off)", time.Minute, off.executed)
	r.series("executed/min (resilience on)", time.Minute, on.executed)
	r.note("storm: %d functions × %.1f RPS against a downstream at 100%% failure; clean: %d functions × %.1f RPS sharing the fleet",
		mix.StormFunctions, mix.StormRPSPerFunc, mix.CleanFunctions, mix.CleanRPSPerFunc)
}

// midnightSpikeRig is the midnight-spike scenario: the default day with
// every opportunistic function on the pipeline spike, defended, on a
// fleet tighter than the paper's 66% so that the spike must overload.
func midnightSpikeRig(s Scale) rigConfig {
	rc := defaultRig(s, 0.75)
	rc.Pop.SpikyFunctions = 0
	rc.Pop.DiurnalAmp = 0
	rc.Pop.MidnightSpikeFrac = 1.0
	rc.Pop.MidnightSpikeMul = 8
	rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
	return rc
}

func runChaosMidnightSpike(s Scale, r *Result) {
	p := midnightSpikeRig(s).build().P
	var resDone, oppDone float64
	p.AddOnExecuted(func(c *function.Call) {
		if c.Spec.Quota == function.QuotaOpportunistic {
			oppDone++
		} else {
			resDone++
		}
	})

	// The simulation day starts at midnight, so the spike window is the
	// first 30 minutes. Skip the cold-start transient, then measure
	// reserved goodput over the rest of the window.
	p.Engine.RunFor(10 * time.Minute)
	resBefore := resDone
	p.Engine.RunFor(20 * time.Minute)
	resSpikeRate := (resDone - resBefore) / (20 * time.Minute).Seconds()
	pendingPeak := p.PendingCalls()

	p.Engine.RunFor(30 * time.Minute)
	resBefore = resDone
	p.Engine.RunFor(30 * time.Minute)
	resPostRate := (resDone - resBefore) / (30 * time.Minute).Seconds()
	pendingEnd := p.PendingCalls()
	t := core.CountersOf(p.Regions()...)

	r.row("queued backlog at spike end vs +1h", "builds, then drains", "%d → %d", pendingPeak, pendingEnd)
	r.row("reserved goodput in-spike vs post (RPS)", "unaffected", "%.1f vs %.1f", resSpikeRate, resPostRate)
	r.row("opportunistic calls executed", "time-shifted out of the window", "%.0f", oppDone)
	r.row("shed / expired / dead-lettered", "0 shed", "%.0f / %.0f / %.0f",
		t.ShedCalls, t.DeadExpired+t.ExpiredSwept, t.DeadLetters)

	r.check("pipeline backlog builds during the spike", pendingPeak > 0, "%d queued at spike end", pendingPeak)
	r.check("backlog drains after the window", float64(pendingEnd) < 0.7*float64(pendingPeak),
		"%d left of %d an hour later", pendingEnd, pendingPeak)
	r.check("delay-tolerant spike work is deferred, never shed", t.ShedCalls == 0 && t.DeadShed == 0,
		"%.0f scheduler sheds, %.0f shed dead-letters", t.ShedCalls, t.DeadShed)
	r.check("reserved traffic rides through the spike", resSpikeRate >= 0.6*resPostRate,
		"%.1f RPS in-spike vs %.1f post", resSpikeRate, resPostRate)

	r.series("executed calls/min", time.Minute, p.Executed.Values())
}

// spikyClientRig is the spiky-client scenario: a small steady population
// plus one client whose day of calls arrives in 15 minutes, defended, on
// two regions provisioned for 50% utilization.
func spikyClientRig(s Scale) rigConfig {
	rc := baseRig(s)
	rc.Platform.Cluster.Regions = 2
	rc.Platform.CodePushInterval = 0
	rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
	rc.TargetUtil = 0.5
	rc.Pop = workload.DefaultPopulationConfig()
	rc.Pop.Functions = 40
	rc.Pop.TotalRPS = 8
	rc.Pop.Teams = 10
	rc.Pop.SpikyFunctions = 1
	rc.Pop.SpikeBurstRPS = 80
	rc.Pop.SpikeBurstLen = 15 * time.Minute
	rc.Pop.MidnightSpikeFrac = 0
	rc.Pop.DiurnalAmp = 0
	rc.Pop.FutureStartFrac = 0
	if !s.Quick {
		rc.Pop.SpikeBurstRPS = 120
	}
	return rc
}

func runChaosSpikyClient(s Scale, r *Result) {
	total := simWindow(s, 4*time.Hour, 3*time.Hour)
	rc := spikyClientRig(s)
	pcfg := rc.Pop
	var spiky *workload.FuncModel
	rc.Fill = func(pop *workload.Population, _ uint64) {
		for _, m := range pop.Models {
			if m.Burst != nil {
				spiky = m
			}
		}
		// Pin the spiky client's quota so even a fully scaled-up S spreads
		// the burst over at least an hour of execution.
		res := spiky.Spec.Resources
		spiky.Spec.QuotaMIPS = 2.5 * function.LogNormalMean(res.CPUMu, res.CPUSigma)
	}
	p := rc.build().P
	var spikyDone float64
	p.AddOnExecuted(func(c *function.Call) {
		if c.Spec == spiky.Spec {
			spikyDone++
		}
	})

	burstSize := pcfg.SpikeBurstRPS * pcfg.SpikeBurstLen.Seconds()
	p.Engine.RunFor(pcfg.SpikeBurstLen)
	atBurstEnd := spikyDone
	p.Engine.RunFor(total - pcfg.SpikeBurstLen)
	t := core.CountersOf(p.Regions()...)

	r.row("burst size (calls in 15 min)", "20M at Meta scale", "%.0f", burstSize)
	r.row("burst executed inside its window", "small fraction (time-shifted)", "%.0f (%.0f%%)",
		atBurstEnd, 100*atBurstEnd/burstSize)
	r.row("burst executed by end of run", "all of it, hours later", "%.0f of %.0f (%.0f%%)",
		spikyDone, burstSize, 100*spikyDone/burstSize)
	r.row("shed / redelivered", "0 / ~0", "%.0f / %.0f", t.ShedCalls, t.Redelivered)

	r.check("burst is time-shifted, not executed inline", atBurstEnd < 0.5*burstSize,
		"%.0f%% of the burst executed inside its window", 100*atBurstEnd/burstSize)
	r.check("the burst eventually executes", spikyDone >= 0.7*burstSize,
		"%.0f%% done after %v", 100*spikyDone/burstSize, total)
	r.check("resilience machinery stays idle on benign overload", t.ShedCalls == 0 && t.DeadShed == 0,
		"%.0f sheds on a delay-tolerant burst", t.ShedCalls+t.DeadShed)
	r.check("no retry amplification without failures", amplification(t) < 1.05,
		"amplification %.3f", amplification(t))

	r.series("executed calls/min", time.Minute, p.Executed.Values())
	r.note("the spiky function's quota pins drain rate at ~2.5 calls/s × S, so the 15-minute burst executes over more than an hour")
}

// neighbourRig is the noisy-neighbour scenario: three workers shared by a
// flooding tenant and its small reserved victims.
func neighbourRig(s Scale) rigConfig {
	rc := smallFleet(s, 1, 3)
	rc.Seeds = neighbourSeeds
	rc.Fill = func(pop *workload.Population, seed uint64) {
		workload.BuildNoisyNeighbor(pop, rng.New(seed))
	}
	return rc
}

func runChaosZipfNeighbor(s Scale, r *Result) {
	const floodStart, floodLen = workload.NoisyFloodStart, workload.NoisyFloodLen
	post := 20 * time.Minute
	victimRPS := workload.NoisyVictimRPS * float64(workload.NoisyVictims)

	type outcome struct {
		healthy, during float64
		pending         int
		t               core.Counters
		executed        []float64
	}
	run := func(enabled bool) outcome {
		rc := neighbourRig(s)
		if enabled {
			rc.Platform.Resilience = rc.Platform.Resilience.EnableAll()
		}
		p := rc.build().P
		var victimDone float64
		p.AddOnExecuted(func(c *function.Call) {
			if c.Spec.Team != "team-noisy" {
				victimDone++
			}
		})

		goodput := func(d time.Duration) float64 {
			before := victimDone
			p.Engine.RunFor(d)
			return (victimDone - before) / (victimRPS * d.Seconds())
		}
		p.Engine.RunFor(floodStart - 10*time.Minute)
		healthy := goodput(10 * time.Minute)
		during := goodput(floodLen)
		p.Engine.RunFor(post)
		return outcome{healthy, during, p.PendingCalls(), core.CountersOf(p.Regions()...), p.Executed.Values()}
	}

	off := run(false)
	on := run(true)

	floodSize := workload.NoisyFloodRPS * floodLen.Seconds()
	r.row("flood size (opportunistic calls)", "far beyond fleet capacity", "%.0f over %v", floodSize, floodLen)
	r.row("victim goodput healthy → flood (off)", "criticality already shields", "%.2f → %.2f", off.healthy, off.during)
	r.row("victim goodput healthy → flood (on)", "stays high", "%.2f → %.2f", on.healthy, on.during)
	r.row("backlog after the flood (off/on)", "unbounded vs bounded", "%d / %d", off.pending, on.pending)
	r.row("shed / expired with shedding on", "flood excess dead-lettered", "%.0f / %.0f",
		on.t.DeadShed, on.t.DeadExpired+on.t.ExpiredSwept)

	r.check("victim tenants keep goodput through the flood", on.during >= 0.7,
		"%.2f of offered during the flood", on.during)
	r.check("queue-delay shedding engages on the noisy tenant", on.t.ShedCalls > 0,
		"%.0f calls shed", on.t.ShedCalls)
	r.check("every shed is accounted at its shard", on.t.ShedCalls == on.t.DeadShed,
		"%.0f scheduler sheds vs %.0f shed dead-letters", on.t.ShedCalls, on.t.DeadShed)
	r.check("shedding and expiry bound the flood backlog", float64(on.pending) < 0.3*float64(off.pending),
		"%d pending with the valve on vs %d without", on.pending, off.pending)
	r.check("nothing is shed before the flood or from victims", off.t.DeadShed == 0,
		"(disabled run) %.0f sheds; victims are reserved and unsheddable by construction", off.t.DeadShed)

	r.series("executed/min (resilience off)", time.Minute, off.executed)
	r.series("executed/min (resilience on)", time.Minute, on.executed)
}
