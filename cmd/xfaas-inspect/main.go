// Command xfaas-inspect runs a seeded workload with per-call tracing on
// and prints where the time went: latency breakdowns (submit → queue →
// scheduling → execution) aggregated by function, region, criticality
// and quota; the critical paths of the slowest calls; and the
// control-plane event log (chaos injections, breaker flips, health
// transitions). With -chrome it also exports the sampled traces as a
// Chrome/Perfetto trace_event file.
//
// All output derives from the simulated clock only, so two runs with the
// same flags are byte-identical — the determinism CI relies on it.
//
// Usage:
//
//	xfaas-inspect -minutes 30
//	xfaas-inspect -seed 7 -sample 8 -chaos correlated -top 3
//	xfaas-inspect -chrome trace.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/slo"
	"xfaas/internal/trace"
	"xfaas/internal/workload"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the chaos scenarios, then exit")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		minutes   = flag.Int("minutes", 30, "simulated minutes to run")
		sample    = flag.Uint64("sample", 1, "trace 1 in N calls (1 = every call)")
		chaosFlag = flag.String("chaos", "", "fault scenario (see -list)")
		top       = flag.Int("top", 5, "slowest calls to print as critical paths")
		events    = flag.Int("events", 40, "control-plane events to print")
		rps       = flag.Float64("rps", 10, "workload mean RPS")
		funcs     = flag.Int("functions", 40, "workload population size")
		chrome    = flag.String("chrome", "", "write Chrome trace_event JSON to this file")
		inv       = flag.Bool("invariants", false, "check platform invariants; print violations with critical paths and exit 1 on any")
		sloFlag   = flag.Bool("slo", false, "enable the SLO engine and print per-criticality burn rates and alert state")
		util      = flag.Bool("utilization", false, "enable core-second accounting and print fleet/region/criticality utilization and per-tenant cost")
	)
	flag.Parse()
	if err := checkFlags(*minutes, *funcs, *rps, *sample, *top, *events); err != nil {
		fmt.Fprintln(os.Stderr, "xfaas-inspect:", err)
		os.Exit(2)
	}

	if *list {
		for _, sc := range chaos.Scenarios {
			fmt.Printf("%-15s %s\n", sc.Name, sc.About)
		}
		return
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Cluster.Regions = 3
	cfg.CodePushInterval = 0
	cfg.Trace.Enabled = true
	cfg.Trace.SampleEvery = *sample
	cfg.Trace.RingSize = 1 << 16
	cfg.Invariants.Enabled = *inv
	// Journal the DurableQs so crash scenarios replay instead of losing
	// everything. The journal is a passive observer until a crash, so
	// non-crash runs are byte-identical with or without it.
	cfg.Durability.JournalEnabled = true
	// A downstream dependency for part of the population, so traces carry
	// a retry component and the retrystorm scenario has something to
	// break. Failed invocations occupy the worker for their full duration.
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	cfg.Worker.FailureSlowdown = 1.0
	cfg.Resilience = cfg.Resilience.EnableAll()
	// The gray-failure defenses are on so their scenarios (graytail,
	// flapping) have something to drive and healthy runs show the
	// hedge/detection machinery at rest.
	cfg.GrayDetection.Enabled = true
	if *sloFlag || *util {
		// Accounting and SLO evaluation share one switch; either
		// flag enables both (they draw no randomness, so the simulation is
		// unchanged — only the reporting below differs).
		cfg.Observe = cfg.Observe.EnableAll()
	}

	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = *funcs
	pcfg.TotalRPS = *rps
	pcfg.SpikyFunctions = 0
	pcfg.MidnightSpikeFrac = 0
	pcfg.DownstreamFrac = 0.25
	pcfg.Downstreams = []string{"backend"}
	pop := workload.NewPopulation(pcfg, rng.New(cfg.Seed+100))
	cfg.Cluster.TotalWorkers = core.ProvisionWorkers(cfg.Worker,
		pop.ExpectedMIPS()*1.4, pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS)*1.4,
		0.66, 2*cfg.Cluster.Regions)

	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(cfg.Seed+200))
	gen.Start()

	dur := time.Duration(*minutes) * time.Minute
	if *chaosFlag != "" {
		sc, ok := chaos.Lookup(*chaosFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown chaos scenario %q (see -list)\n", *chaosFlag)
			os.Exit(2)
		}
		sc.Arm(p, chaos.NewInjector(p, rng.New(cfg.Seed+300)), dur)
	}
	p.Engine.RunFor(dur)

	fmt.Printf("xfaas-inspect seed=%d minutes=%d sample=1/%d", *seed, *minutes, *sample)
	if *chaosFlag != "" {
		fmt.Printf(" chaos=%s", *chaosFlag)
	}
	fmt.Println()
	sampled, completed, droppedEv := p.Tracer.Stats()
	fmt.Printf("generated=%.0f acked=%.0f slo_misses=%.0f pending=%d\n",
		gen.Generated.Value(), p.Acked(), p.SLOMisses(), p.PendingCalls())
	fmt.Printf("traces: sampled=%d completed=%d in_flight=%d dropped_events=%d control_events=%d\n\n",
		sampled, completed, p.Tracer.Active(), droppedEv, p.Tracer.ControlCount())

	traces := p.Tracer.Recent()

	printAgg("by criticality", trace.Aggregate(traces, func(t *trace.CallTrace) string { return t.Crit.String() }))
	printAgg("by quota", trace.Aggregate(traces, func(t *trace.CallTrace) string { return t.Quota.String() }))
	printAgg("by region", trace.Aggregate(traces, func(t *trace.CallTrace) string {
		return fmt.Sprintf("r%d", t.Region)
	}))
	byFunc := trace.Aggregate(traces, func(t *trace.CallTrace) string { return t.Func })
	// Functions can be numerous; keep the busiest 10 (stable: sort is by
	// key, selection by count with key tie-break).
	if len(byFunc) > 10 {
		for i := 0; i < 10; i++ {
			max := i
			for j := i + 1; j < len(byFunc); j++ {
				if byFunc[j].Count > byFunc[max].Count {
					max = j
				}
			}
			byFunc[i], byFunc[max] = byFunc[max], byFunc[i]
		}
		byFunc = byFunc[:10]
	}
	printAgg("by function (busiest 10)", byFunc)

	// Consistency: the tracer's view of end-to-end latency must agree
	// with the platform's histogram. At sample=1 with an unfilled ring
	// both see exactly the acked calls, so the means are equal up to
	// float summation order.
	var ackSum float64
	var ackN int
	for _, t := range traces {
		if t.Outcome != trace.KindAck {
			continue
		}
		if c, ok := t.Breakdown(); ok {
			ackSum += c.Sum().Seconds()
			ackN++
		}
	}
	if ackN > 0 {
		traceMean := ackSum / float64(ackN)
		fmt.Printf("consistency: trace mean e2e %.6fs over %d acked traces; histogram mean %.6fs over %d acked calls\n\n",
			traceMean, ackN, p.E2ELatency.Mean(), p.E2ELatency.Count())
	}

	slow := p.Tracer.Slowest()
	if len(slow) > *top {
		slow = slow[:*top]
	}
	fmt.Printf("== slowest %d calls (critical paths)\n", len(slow))
	for _, t := range slow {
		fmt.Print(t.Render())
	}
	fmt.Println()

	ctrl := p.Tracer.Controls()
	if len(ctrl) > *events {
		ctrl = ctrl[len(ctrl)-*events:]
	}
	fmt.Printf("== control-plane events (last %d of %d)\n", len(ctrl), p.Tracer.ControlCount())
	for _, e := range ctrl {
		fmt.Printf("%9.1fs %-22s %s\n", e.At.Seconds(), e.Kind, e.Detail)
	}

	printHedging(p)
	printDrains(p)

	if *util {
		printUtilization(p.Acct.Snapshot(p.Engine.Now()))
	}
	if *sloFlag {
		printSLO(p.SLO.Snapshot(p.Engine.Now()))
	}

	violated := false
	if *inv {
		vs := p.Inv.Final()
		tot := p.Inv.Totals()
		fmt.Printf("\n== invariants (%d evaluations, %d late events)\n", p.Inv.Evals(), p.Inv.LateEvents())
		fmt.Printf("conservation: submitted=%d resurrected=%d acked=%d dead_lettered=%d dropped=%d lost=%d in_flight=%d gap=%d\n",
			tot.Submitted, tot.Resurrected, tot.Acked, tot.DeadLettered, tot.Dropped, tot.Lost, tot.InFlight, tot.Gap())
		if len(vs) == 0 {
			fmt.Printf("all invariants hold (%d total violations)\n", p.Inv.TotalViolations())
		} else {
			violated = true
			fmt.Printf("VIOLATIONS: %d recorded (%d total)\n", len(vs), p.Inv.TotalViolations())
			for _, v := range vs {
				fmt.Printf("  %s\n", v)
				// The violation carries the call ID; if that call was
				// sampled, print its critical path.
				if v.CallID != 0 {
					if t := p.Tracer.Find(v.CallID); t != nil {
						fmt.Print(t.Render())
					}
				}
			}
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chrome export: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteChrome(f, traces); err != nil {
			fmt.Fprintf(os.Stderr, "chrome export: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "chrome export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d traces to %s\n", len(traces), *chrome)
	}
	if violated {
		os.Exit(1)
	}
}

// checkFlags rejects flag values no run can use: an empty run or
// population, a run too long for a time.Duration, a sampling rate of 1 in
// 0, or a negative number of lines to print.
func checkFlags(minutes, funcs int, rps float64, sample uint64, top, events int) error {
	switch {
	case minutes < 1 || funcs < 1 || !(rps > 0):
		return fmt.Errorf("-minutes, -functions and -rps must be positive (have %d, %d, %g)", minutes, funcs, rps)
	case minutes > int(workload.MaxSpecSeconds)/60:
		return fmt.Errorf("-minutes must be at most %d (have %d)", int(workload.MaxSpecSeconds)/60, minutes)
	case sample < 1:
		return fmt.Errorf("-sample must be at least 1 (1 traces every call)")
	case top < 0 || events < 0:
		return fmt.Errorf("-top and -events must not be negative (have %d, %d)", top, events)
	}
	return nil
}

// printAgg renders one aggregation as an aligned table of mean
// per-component seconds.
func printAgg(title string, groups []trace.Agg) {
	fmt.Printf("== latency breakdown %s\n", title)
	fmt.Printf("%-28s %7s %7s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"key", "calls", "acked", "mean_e2e", "submit", "migrate", "deferred", "queue", "retry", "sched", "exec", "max", "p_ack")
	for _, a := range groups {
		m := a.Mean()
		ackFrac := 0.0
		if a.Count > 0 {
			ackFrac = float64(a.Acked) / float64(a.Count)
		}
		fmt.Printf("%-28s %7d %7d %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.3f\n",
			a.Key, a.Count, a.Acked, a.MeanE2E().Seconds(),
			m.Submit.Seconds(), m.Migrate.Seconds(), m.Deferred.Seconds(), m.Queue.Seconds(),
			m.Retry.Seconds(), m.Sched.Seconds(), m.Exec.Seconds(),
			a.Max.Seconds(), ackFrac)
	}
	fmt.Println()
}

// printHedging renders the per-region hedge win/loss breakdown and the
// budget position: how many speculative copies were dispatched, how many
// beat their primary, how many were cancelled after losing the race, and
// how many were denied for lack of budget tokens.
func printHedging(p *core.Platform) {
	fmt.Printf("\n== hedged dispatch (win/loss by region)\n")
	fmt.Printf("%-8s %8s %8s %10s %8s %10s %10s\n",
		"region", "hedged", "wins", "cancelled", "denied", "earned", "spent")
	for _, reg := range p.Regions() {
		c := core.CountersOf(reg)
		fmt.Printf("r%-7d %8.0f %8.0f %10.0f %8.0f %10.0f %10.0f\n",
			reg.ID, c.Hedged, c.HedgeWins, c.HedgeCancelled, c.HedgeDenied, c.HedgeEarned, c.HedgeSpent)
	}
	c := core.CountersOf(p.Regions()...)
	fmt.Printf("outlier detection: ejected=%.0f reinstated=%.0f\n", c.Ejected, c.Reinstated)
}

// printDrains renders the drain-RTO breakdown for every region that was
// evacuated during the run.
func printDrains(p *core.Platform) {
	if p.Drainer.Drains.Value() == 0 {
		return
	}
	fmt.Printf("\n== regional drains (RTO breakdown)\n")
	fmt.Printf("%-8s %10s %12s %10s %10s\n", "region", "draining", "quiesced", "rto", "migrated")
	for i := range p.Regions() {
		rto, ok := p.Drainer.LastRTO(i)
		rtoStr := "-"
		if ok {
			rtoStr = rto.String()
		}
		fmt.Printf("r%-7d %10v %12v %10s %10d\n",
			i, p.Drainer.Draining(i), p.Drainer.Quiesced(i), rtoStr, p.Drainer.MigratedCalls(i))
	}
	fmt.Printf("total migrated across drains: %.0f\n", p.Drainer.Migrated.Value())
}

// printUtilization renders the -utilization snapshot: cumulative fleet
// and per-region utilization, busy core-seconds by criticality, and the
// per-tenant cost attribution (exec / queue / retry-waste).
func printUtilization(s slo.UtilizationSnapshot) {
	fmt.Printf("\n== utilization (core-second accounting, %gs windows)\n", s.WindowSecs)
	fmt.Printf("fleet: capacity=%.1f cores busy=%.1f idle=%.1f core-seconds utilization=%.3f\n",
		s.CapacityCores, s.BusyCoreSecs, s.IdleCoreSecs, s.Utilization)
	fmt.Printf("%-10s %10s %14s %12s\n", "region", "cores", "busy_core_s", "utilization")
	for _, r := range s.Regions {
		fmt.Printf("%-10s %10.1f %14.1f %12.3f\n", r.Region, r.CapacityCores, r.BusyCoreSecs, r.Utilization)
	}
	fmt.Printf("%-10s %14s %14s\n", "crit", "busy_core_s", "share")
	for _, c := range s.Criticalities {
		fmt.Printf("%-10s %14.1f %14.3f\n", c.Crit, c.BusyCoreSecs, c.ShareOfFleet)
	}
	fmt.Printf("%-28s %14s %14s %14s\n", "tenant", "exec_core_s", "queue_s", "waste_core_s")
	for _, t := range s.Tenants {
		fmt.Printf("%-28s %14.1f %14.1f %14.1f\n", t.Team, t.ExecCoreSecs, t.QueueSecs, t.RetryWasteCoreSec)
	}
}

// printSLO renders the -slo snapshot: each criticality class's objective,
// error budget, burn rates over both alert windows and alert history.
func printSLO(s slo.SLOSnapshot) {
	fmt.Printf("\n== slo (burn threshold %.2f, windows %gs/%gs)\n",
		s.BurnThreshold, s.FastWindowSecs, s.SlowWindowSecs)
	fmt.Printf("%-10s %-26s %8s %10s %10s %10s %10s %7s %7s %7s\n",
		"crit", "objective", "budget", "good", "bad", "burn_fast", "burn_slow", "firing", "fires", "clears")
	for _, c := range s.Classes {
		fmt.Printf("%-10s %-26s %8.3f %10.0f %10.0f %10.2f %10.2f %7v %7d %7d\n",
			c.Crit, c.Objective, c.Budget, c.Good, c.Bad, c.BurnFast, c.BurnSlow, c.Firing, c.Fires, c.Clears)
	}
}
