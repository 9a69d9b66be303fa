package core

import (
	"fmt"
	"math"

	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
)

// registerInvariantProbes installs the platform-wide structural checks on
// the invariant checker: conservation closure against component counters,
// quota ceilings, AIMD bounds, slow-start caps, concurrency limits, and
// worker accounting closure. Per-call state-machine checks live in the
// components' hooks; these probes validate the aggregate views against
// each other at every evaluation interval and once at run end.
func (p *Platform) registerInvariantProbes() {
	if !p.Inv.Enabled() {
		return
	}

	// Locality containment is checked at dispatch time (assignments
	// refresh every localityInterval, so a probe-time check would flag
	// calls placed legally under the previous assignment).
	p.Inv.LocalityCheck = func(c *function.Call, region, workerIdx int) string {
		if region < 0 || region >= len(p.regions) {
			return fmt.Sprintf("dispatch to unknown region %d", region)
		}
		reg := p.regions[region]
		if workerIdx < 0 || workerIdx >= len(reg.Workers) {
			return fmt.Sprintf("dispatch to unknown worker %d in region %d", workerIdx, region)
		}
		if !reg.LB.InGroup(c.Spec, reg.Workers[workerIdx]) {
			return fmt.Sprintf("func %s on w-%d-%d outside its locality group",
				c.Spec.Name, region, workerIdx)
		}
		return ""
	}

	// Conservation: the ledger's own closure (submitted + resurrected ==
	// acked + dead + dropped + lost + in-flight, in total and per function
	// and region), and the ledger cross-checked against the components'
	// independent counters — submitters count accepted and route-failed
	// calls, shards count acks and dead-letters, and the in-flight
	// population must equal what the queues and batches physically hold,
	// including calls a crashed shard holds only in its durable journal
	// (CrashHeld) until replay requeues them. The closure must therefore
	// hold at every probe tick across crash/restart windows, not just in
	// steady state.
	p.Inv.RegisterProbe("conservation", func(now sim.Time) []string {
		var out []string
		gap := func(t invariant.Tally) string {
			return fmt.Sprintf("gap %+d (submitted=%d resurrected=%d acked=%d dead=%d dropped=%d lost=%d inflight=%d)",
				t.Gap(), t.Submitted, t.Resurrected, t.Acked, t.DeadLettered, t.Dropped, t.Lost, t.InFlight)
		}
		t := p.Inv.Totals()
		if t.Gap() != 0 {
			out = append(out, "ledger "+gap(t))
		}
		c := CountersOf(p.regions...)
		// Fabric handoffs that found no live shard in the destination
		// partition are dropped there, not at a submitter.
		out = agree(out, "submitter counters say", c.Submitted, "submitted", t.Submitted)
		out = agree(out, "submitter+fabric counters say", c.RouteFailed+p.MigratedDropped.Value(), "dropped", t.Dropped)
		out = agree(out, "fabric counter says", p.MigratedOut.Value(), "migrated out", t.MigratedOut)
		out = agree(out, "fabric counter says", p.MigratedIn.Value(), "migrated in", t.MigratedIn)
		out = agree(out, "shard counters say", c.ShardAcked, "acked", t.Acked)
		out = agree(out, "shard counters say", c.DeadLetters, "dead-lettered", t.DeadLettered)
		if held := c.Batched + c.Pending + c.Leased + c.CrashHeld; held != t.InFlight {
			out = append(out, fmt.Sprintf(
				"queues+batches hold %d calls, ledger has %d in flight", held, t.InFlight))
		}
		// The labels are built only for a gap: the probe runs over every
		// function at every evaluation.
		p.Inv.EachFunc(func(name string, ft invariant.Tally) {
			if ft.Gap() != 0 {
				out = append(out, "func "+name+" "+gap(ft))
			}
		})
		p.Inv.EachRegion(func(region int, rt invariant.Tally) {
			if rt.Gap() != 0 {
				out = append(out, fmt.Sprintf("region %d ", region)+gap(rt))
			}
		})
		return out
	})

	// Acked durability — "no acked call is ever lost". Two halves enforce
	// it: (a) the ledger's lost-settled violation fires the instant any
	// component destroys a call that already reached a terminal state
	// (fired from OnLost, not here); (b) this probe proves every ledger
	// loss is attributable to a component crash — the lost population
	// must exactly equal what the shards and submitters report destroying,
	// so no call can quietly vanish without a crash to blame, and every
	// resurrection is matched by journal replay activity.
	p.Inv.RegisterProbe("acked-durability", func(now sim.Time) []string {
		var out []string
		t := p.Inv.Totals()
		c := CountersOf(p.regions...)
		if lost := c.SubmitterLost + c.ShardLost; uint64(lost) != t.Lost {
			out = append(out, fmt.Sprintf(
				"components report %.0f crash losses, ledger has %d lost", lost, t.Lost))
		}
		if t.Resurrected > 0 && c.Replayed == 0 {
			out = append(out, fmt.Sprintf(
				"ledger resurrected %d calls with no journal replay to account for them",
				t.Resurrected))
		}
		return out
	})

	// Dead-letter disposition closure: the ledger's per-reason terms must
	// sum to its dead-letter total, and each must equal the shards'
	// independent per-reason counters — a dead-lettered call has exactly
	// one disposition, surfaced consistently in both views.
	p.Inv.RegisterProbe("deadletter-reasons", func(now sim.Time) []string {
		var out []string
		t := p.Inv.Totals()
		if sum := t.Exhausted + t.Expired + t.BudgetDenied + t.Shed; sum != t.DeadLettered {
			out = append(out, fmt.Sprintf(
				"reasons sum %d != dead-lettered %d (exhausted=%d expired=%d budget=%d shed=%d)",
				sum, t.DeadLettered, t.Exhausted, t.Expired, t.BudgetDenied, t.Shed))
		}
		c := CountersOf(p.regions...)
		out = agree(out, "shards report", c.DeadExhausted, "exhausted", t.Exhausted)
		out = agree(out, "shards report", c.DeadExpired, "expired", t.Expired)
		out = agree(out, "shards report", c.DeadBudget, "budget-denied", t.BudgetDenied)
		return agree(out, "shards report", c.DeadShed, "shed", t.Shed)
	})

	// Both amplification probes run with the defenses on.
	//
	// Retry amplification: the tokens the shards spent can never exceed
	// what first-attempt successes earned plus each function's per-shard
	// burst — redelivered work is bounded at β × first-attempt work plus a
	// constant, the configured amplification bound of 1+β.
	if p.cfg.Resilience.Enabled {
		p.Inv.RegisterProbe("retry-amplification", func(now sim.Time) []string {
			c := CountersOf(p.regions...)
			burstCap := durableq.DefaultBudgetBurst * float64(c.Shards*p.Registry.Len())
			bound := durableq.DefaultBudgetRatio*c.FirstAcks + burstCap
			if c.BudgetSpent > bound+1e-6 {
				return []string{fmt.Sprintf(
					"retry budget spent %.0f exceeds bound %.0f (β=%.2f firstAcks=%.0f burst=%.0f)",
					c.BudgetSpent, bound, durableq.DefaultBudgetRatio, c.FirstAcks, burstCap)}
			}
			return nil
		})

		// Hedge amplification: the speculative copies the schedulers
		// dispatched can never exceed the budget fraction of primary
		// dispatches plus each region's burst allowance — hedged load is
		// bounded at (1 + HedgeBudgetFrac) × primary load plus a
		// constant, no matter how gray the fleet looks.
		p.Inv.RegisterProbe("hedge-amplification", func(now sim.Time) []string {
			c := CountersOf(p.regions...)
			const frac, burst = scheduler.HedgeBudgetFrac, scheduler.HedgeBudgetBurst
			bound := frac*c.HedgeEarned + burst*float64(len(p.regions))
			if c.HedgeSpent > bound+1e-6 {
				return []string{fmt.Sprintf(
					"hedge budget spent %.0f exceeds bound %.0f (frac=%.3f primaries=%.0f burst=%.0f×%d)",
					c.HedgeSpent, bound, frac, c.HedgeEarned, burst, len(p.regions))}
			}
			return nil
		})
	}

	// Quota ceilings: each function's measured global RPS must stay under
	// the largest limit the Central could have legitimately admitted since
	// the last probe (its high-watermark limit plus the burst allowance
	// amortized over the measurement window). Valid because the probe
	// interval exceeds the rate window, so the watermark covers the whole
	// measured span. Negative bound means unlimited.
	p.Inv.RegisterProbe("quota-ceiling", func(now sim.Time) []string {
		var out []string
		for _, spec := range p.Registry.All() {
			bound := p.Central.TakePeakAllowedRPS(spec)
			if bound < 0 {
				continue
			}
			if cur := p.Central.CurrentRPS(spec); cur > bound+1e-6 {
				out = append(out, fmt.Sprintf("func %s measured %.3f rps > allowed %.3f",
					spec.Name, cur, bound))
			}
		}
		return out
	})

	// Congestion control: AIMD limits stay at or above the floor, the
	// slow-start window count never exceeds its cap (which itself never
	// drops below the threshold), and concurrency occupancy respects the
	// configured limit.
	p.Inv.RegisterProbe("congestion-bounds", func(now sim.Time) []string {
		var out []string
		p.Cong.EachControl(func(name string, ctl *congestion.Control) {
			if lim := ctl.AIMD.Limit(); lim < congestion.AIMDFloor {
				out = append(out, fmt.Sprintf("func %s aimd limit %.2f below floor %.2f",
					name, lim, congestion.AIMDFloor))
			}
			cap := ctl.Slow.Cap(now)
			if cap < congestion.SlowStartThreshold {
				out = append(out, fmt.Sprintf("func %s slow-start cap %.1f below threshold %.1f",
					name, cap, congestion.SlowStartThreshold))
			}
			if in := ctl.Slow.InWindow(now); in > cap+1e-9 {
				out = append(out, fmt.Sprintf("func %s slow-start window count %.0f exceeds cap %.1f",
					name, in, cap))
			}
			if lim := ctl.Conc.Limit(); lim > 0 && ctl.Conc.Running() > lim {
				out = append(out, fmt.Sprintf("func %s concurrency %d exceeds limit %d",
					name, ctl.Conc.Running(), lim))
			}
			if ctl.Conc.Running() < 0 {
				out = append(out, fmt.Sprintf("func %s negative concurrency %d",
					name, ctl.Conc.Running()))
			}
		})
		return out
	})

	// Worker accounting closure: each worker's cached CPU/memory/code
	// totals must equal a fresh recomputation over its running set. Drift
	// means an execution path incremented without decrementing (or vice
	// versa) — the class of bug chaos evacuation is most likely to plant.
	p.Inv.RegisterProbe("worker-accounting", func(now sim.Time) []string {
		const tol = 1e-3
		var out []string
		for _, reg := range p.regions {
			for _, w := range reg.Workers {
				cpu, mem, code, idle := w.AccountingDrift()
				if math.Abs(cpu) > tol || math.Abs(mem) > tol || math.Abs(code) > tol || math.Abs(idle) > tol {
					out = append(out, fmt.Sprintf(
						"w-%d-%d drift cpu=%+.4f mem=%+.4f code=%+.4f idle=%+.4f",
						w.ID.Region, w.ID.Index, cpu, mem, code, idle))
				}
			}
		}
		return out
	})

	// Utilization closure: every worker meter's busy + idle core-seconds
	// must equal capacity × elapsed on the sim clock. The tolerance covers
	// only float accumulation (which grows with integrated core-seconds);
	// any structural leak — an execution start without a matching end, a
	// crash eviction missing its meter adjustment — exceeds it immediately.
	if p.Acct != nil {
		p.Inv.RegisterProbe("utilization-closure", func(now sim.Time) []string {
			var out []string
			for i, m := range p.Acct.Meters() {
				capSecs := m.Capacity() * now.Seconds()
				if err := m.ClosureError(now); err > slo.ClosureTolerance(capSecs) {
					out = append(out, fmt.Sprintf(
						"meter %d closure error %.9f core-seconds (capacity %.1f cores, %.0fs elapsed)",
						i, err, m.Capacity(), now.Seconds()))
				}
			}
			return out
		})
	}
}

// agree appends a violation to out when a component counter and the
// ledger's count of the same calls differ.
func agree(out []string, who string, got float64, what string, ledger uint64) []string {
	if uint64(got) != ledger {
		out = append(out, fmt.Sprintf("%s %.0f %s, ledger %d", who, got, what, ledger))
	}
	return out
}
