package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// counters is one reading of the platform's public counters, summed over
// every platform of a rig. All fields except the trailing gauges are
// cumulative since construction; a window's value is end minus start.
type counters struct {
	generated, rejected                       float64 // generator
	submitted, routeFailed, lostSubmitter     float64 // submitters
	enqueued, redelivered, acked, deadLetters float64 // shards
	lostShard                                 float64
	journalAppends                            float64
	completions, sloMisses                    float64 // platform
	schedAcked, shedCalls, hedged, hedgeWins  float64 // schedulers
	executions, coldExecutions                float64 // workers
	migratedOut, migratedIn, migratedDropped  float64 // fabric
	traceSampled, traceDropped, violations    float64 // observers
	events                                    float64 // engine

	// Gauges (instantaneous).
	batched, pending, leased, crashHeld int
	journalLen, enginePending           int
	utilization                         float64
}

func (r *rig) read() counters {
	var c counters
	for _, g := range r.gens {
		c.generated += g.Generated.Value()
		c.rejected += g.Errors.Value()
	}
	for _, p := range r.plats {
		c.completions += p.Completions.Value()
		c.sloMisses += p.SLOMisses()
		c.migratedOut += p.MigratedOut.Value()
		c.migratedIn += p.MigratedIn.Value()
		c.migratedDropped += p.MigratedDropped.Value()
		c.utilization += p.MeanUtilization() / float64(len(r.plats))
		if p.Tracer.Enabled() {
			sampled, _, dropped := p.Tracer.Stats()
			c.traceSampled += float64(sampled)
			c.traceDropped += float64(dropped)
		}
		if p.Inv.Enabled() {
			c.violations += float64(p.Inv.TotalViolations())
		}
		for _, reg := range p.Regions() {
			c.batched += reg.Normal.BatchLen() + reg.Spiky.BatchLen()
			c.submitted += reg.Normal.Submitted.Value() + reg.Spiky.Submitted.Value()
			c.routeFailed += reg.Normal.RouteFailed.Value() + reg.Spiky.RouteFailed.Value()
			c.lostSubmitter += reg.Normal.LostOnCrash.Value() + reg.Spiky.LostOnCrash.Value()
			for _, sh := range reg.Shards {
				c.enqueued += sh.Enqueued.Value()
				c.redelivered += sh.Redelivered.Value()
				c.acked += sh.Acked.Value()
				c.deadLetters += sh.DeadLetters.Value()
				c.lostShard += sh.LostOnCrash.Value()
				c.pending += sh.Pending()
				c.leased += sh.Leased()
				c.crashHeld += sh.CrashHeld()
				if j := sh.Journal(); j != nil {
					c.journalAppends += float64(j.Appends())
					c.journalLen += j.Len()
				}
			}
			for _, sc := range reg.Scheds {
				c.schedAcked += sc.Acked.Value()
				c.shedCalls += sc.ShedCalls.Value()
				c.hedged += sc.Hedged.Value()
				c.hedgeWins += sc.HedgeWins.Value()
			}
			for _, w := range reg.Workers {
				c.executions += w.Executions.Value()
				c.coldExecutions += w.ColdExecutions.Value()
			}
		}
	}
	c.events = float64(r.events())
	c.enginePending = r.enginePending()
	return c
}

// minus returns the change in every cumulative counter since o. Gauges,
// and the violation total, stay c's.
func (c counters) minus(o counters) counters {
	c.generated -= o.generated
	c.rejected -= o.rejected
	c.submitted -= o.submitted
	c.routeFailed -= o.routeFailed
	c.lostSubmitter -= o.lostSubmitter
	c.enqueued -= o.enqueued
	c.redelivered -= o.redelivered
	c.acked -= o.acked
	c.deadLetters -= o.deadLetters
	c.lostShard -= o.lostShard
	c.journalAppends -= o.journalAppends
	c.completions -= o.completions
	c.sloMisses -= o.sloMisses
	c.schedAcked -= o.schedAcked
	c.shedCalls -= o.shedCalls
	c.hedged -= o.hedged
	c.hedgeWins -= o.hedgeWins
	c.executions -= o.executions
	c.coldExecutions -= o.coldExecutions
	c.migratedOut -= o.migratedOut
	c.migratedIn -= o.migratedIn
	c.migratedDropped -= o.migratedDropped
	c.traceSampled -= o.traceSampled
	c.traceDropped -= o.traceDropped
	c.events -= o.events
	return c
}

// conservationGap is generated calls minus every place a call can be,
// read from component counters only: rejected at submit, unflushed in a
// submitter batch, dropped by routing or the fabric, lost in a crash,
// acked, dead-lettered, queued, leased, held by a crashed shard's
// journal, or in transit between partitions. Zero means the books close.
func (c counters) conservationGap() float64 {
	inFabric := c.migratedOut - c.migratedIn
	accounted := c.rejected + float64(c.batched) + c.routeFailed + c.migratedDropped +
		c.lostSubmitter + c.lostShard + c.acked + c.deadLetters +
		float64(c.pending+c.leased+c.crashHeld) + inFabric
	return c.generated - accounted
}

// digest fingerprints the simulated outcome of a run: the counters that
// any seeded run of the same scenario must reproduce bit for bit, with or
// without the observer layers and the harness's spans. Engine event
// counts and observer-only counters are left out because the observers
// add timers of their own.
func (r *rig) digest(c counters) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%.0f rej=%.0f sub=%.0f rf=%.0f enq=%.0f redeliv=%.0f ack=%.0f dead=%.0f lost=%.0f done=%.0f slo=%.0f sacked=%.0f shed=%.0f hedged=%.0f hwins=%.0f exec=%.0f cold=%.0f out=%.0f in=%.0f indrop=%.0f batch=%d pend=%d leased=%d\n",
		c.generated, c.rejected, c.submitted, c.routeFailed, c.enqueued, c.redelivered, c.acked,
		c.deadLetters, c.lostShard+c.lostSubmitter, c.completions, c.sloMisses, c.schedAcked,
		c.shedCalls, c.hedged, c.hedgeWins, c.executions, c.coldExecutions,
		c.migratedOut, c.migratedIn, c.migratedDropped, c.batched, c.pending, c.leased)
	for _, p := range r.plats {
		fmt.Fprintf(&b, "executed/min=%v\n", p.Executed.Values())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:16]
}
