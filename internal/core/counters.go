package core

import "xfaas/internal/submitter"

// Counters is one reading of the data plane's component counters, summed
// over a set of regions: both submitter pools, the QueueLB, every DurableQ
// shard, every scheduler replica, each region's one shared hedge budget,
// the worker pool and its WorkerLB. Every field is integer-valued, so the
// order regions and components are folded in cannot move a bit. A field
// is here because something outside its component reads it.
type Counters struct {
	// Submitters, both pools. Batched is the calls buffered in unflushed
	// batches (a gauge).
	Submitted, Throttled, RouteFailed, SubmitterLost float64
	Batched                                          int

	// QueueLB.
	Routed, CrossRegion, Unroutable, RemoteForwarded float64

	// DurableQ shards. Shards is their number; Pending, Leased and
	// CrashHeld are gauges of the calls they hold.
	Enqueued, ShardAcked, Redelivered, LeaseExpired     float64
	DeadLetters, DeadExhausted, DeadExpired, DeadBudget float64
	DeadShed, FirstAcks, BudgetSpent                    float64
	ShardLost, Replayed, DupSuppressed                  float64
	Shards, Pending, Leased, CrashHeld                  int

	// Scheduler replicas.
	Polled, Dispatched, QuotaThrottled, CongestionDenied float64
	SchedAcked, SLOMisses, Evacuated, Released           float64
	ShedCalls, ExpiredSwept, CrossRegionPulls            float64
	Hedged, HedgeWins, HedgeCancelled, HedgeDenied       float64
	// HedgeEarned and HedgeSpent read the region's hedge budget, which its
	// replicas share: once per region, not once per replica.
	HedgeEarned, HedgeSpent float64

	// Workers and their WorkerLB.
	Executions, ColdExecutions, Failures, Rejections float64
	DetectedDead, DetectedGray, Ejected, Reinstated  float64
}

// CountersOf sums the component counters of the given regions.
func CountersOf(regions ...*Region) Counters {
	var c Counters
	for _, reg := range regions {
		for _, s := range [...]*submitter.Submitter{reg.Normal, reg.Spiky} {
			c.Submitted += s.Submitted.Value()
			c.Throttled += s.Throttled.Value()
			c.RouteFailed += s.RouteFailed.Value()
			c.SubmitterLost += s.LostOnCrash.Value()
			c.Batched += s.BatchLen()
		}
		q := reg.QueueLB
		c.Routed += q.Routed.Value()
		c.CrossRegion += q.CrossRegion.Value()
		c.Unroutable += q.Unroutable.Value()
		c.RemoteForwarded += q.RemoteForwarded.Value()
		for _, sh := range reg.Shards {
			c.Enqueued += sh.Enqueued.Value()
			c.ShardAcked += sh.Acked.Value()
			c.Redelivered += sh.Redelivered.Value()
			c.LeaseExpired += sh.Expired.Value()
			c.DeadLetters += sh.DeadLetters.Value()
			c.DeadExhausted += sh.DeadExhausted.Value()
			c.DeadExpired += sh.DeadExpired.Value()
			c.DeadBudget += sh.DeadBudget.Value()
			c.DeadShed += sh.DeadShed.Value()
			c.FirstAcks += sh.FirstAcks.Value()
			c.BudgetSpent += sh.BudgetSpent.Value()
			c.ShardLost += sh.LostOnCrash.Value()
			c.Replayed += sh.Replayed.Value()
			c.DupSuppressed += sh.DupSuppressed.Value()
			c.Shards++
			c.Pending += sh.Pending()
			c.Leased += sh.Leased()
			c.CrashHeld += sh.CrashHeld()
		}
		for _, sc := range reg.Scheds {
			c.Polled += sc.Polled.Value()
			c.Dispatched += sc.Dispatched.Value()
			c.QuotaThrottled += sc.QuotaThrottled.Value()
			c.CongestionDenied += sc.CongestionDenied.Value()
			c.SchedAcked += sc.Acked.Value()
			c.SLOMisses += sc.SLOMisses.Value()
			c.Evacuated += sc.Evacuated.Value()
			c.Released += sc.Released.Value()
			c.ShedCalls += sc.ShedCalls.Value()
			c.ExpiredSwept += sc.ExpiredSwept.Value()
			c.CrossRegionPulls += sc.CrossRegionPulls.Value()
			c.Hedged += sc.Hedged.Value()
			c.HedgeWins += sc.HedgeWins.Value()
			c.HedgeCancelled += sc.HedgeCancelled.Value()
			c.HedgeDenied += sc.HedgeDenied.Value()
		}
		if hb := reg.Sched.HedgeBudget; hb != nil {
			c.HedgeEarned += hb.Earned.Value()
			c.HedgeSpent += hb.Spent.Value()
		}
		for _, w := range reg.Workers {
			c.Executions += w.Executions.Value()
			c.ColdExecutions += w.ColdExecutions.Value()
			c.Failures += w.Failures.Value()
			c.Rejections += w.Rejections.Value()
		}
		lb := reg.LB
		c.DetectedDead += lb.DetectedDead.Value()
		c.DetectedGray += lb.DetectedGray.Value()
		c.Ejected += lb.Ejected.Value()
		c.Reinstated += lb.Reinstated.Value()
	}
	return c
}
