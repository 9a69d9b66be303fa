package trace

import (
	"fmt"
	"sort"
	"strings"

	"xfaas/internal/sim"
)

// Components is the latency decomposition of one completed call. The
// seven phases telescope exactly: Submit + Migrate + Deferred + Queue +
// Retry + Sched + Exec == EndAt - SubmitAt, with no gaps and no overlap,
// so aggregated component means sum to the end-to-end mean by
// construction. This identity is what lets xfaas-inspect's breakdown be
// checked against the platform's independent end-to-end histogram — and
// it holds across psim partitions, because migrated calls keep one
// stitched trace.
type Components struct {
	// Submit: client submission → DurableQ persistence (submitter
	// batching plus QueueLB routing). For a migrated call this phase ends
	// at the migration instant.
	Submit sim.Time
	// Migrate: fabric transit — the QueueLB handed the call to another
	// partition and this is the time until it was persisted there.
	Migrate sim.Time
	// Deferred: time waiting for the caller-requested StartAfter — not
	// the platform's fault, reported separately so deferred-execution
	// workloads don't read as slow.
	Deferred sim.Time
	// Queue: ready in the DurableQ → first scheduler lease (the paper's
	// pull-scheduling delay).
	Queue sim.Time
	// Retry: first lease → final lease; everything spent on failed
	// attempts (execution, backoff, redelivery) folds in here.
	Retry sim.Time
	// Sched: final lease → final dispatch (FuncBuffer ordering, quota,
	// congestion and RunQ time).
	Sched sim.Time
	// Exec: final dispatch → terminal event.
	Exec sim.Time
}

// Sum returns the total, equal to the call's end-to-end latency.
func (c Components) Sum() sim.Time {
	return c.Submit + c.Migrate + c.Deferred + c.Queue + c.Retry + c.Sched + c.Exec
}

// Breakdown decomposes a completed trace; ok is false until the call
// reached a terminal event.
func (t *CallTrace) Breakdown() (Components, bool) {
	if !t.Done {
		return Components{}, false
	}
	var enq1, lease1, leaseF, dispLast, mig sim.Time
	haveEnq, haveLease, haveDisp, haveMig := false, false, false, false
	for _, e := range t.Events {
		switch e.Kind {
		case KindEnqueue:
			if !haveEnq {
				enq1, haveEnq = e.At, true
			}
		case KindLease:
			if !haveLease {
				lease1, haveLease = e.At, true
			}
			leaseF = e.At
		case KindDispatch:
			dispLast, haveDisp = e.At, true
		case KindMigrated:
			// Fabric transit only before the first enqueue: a drain
			// migration is stored as the same kind but moves a call that
			// is already queued, and is no phase of its own.
			if !haveMig && !haveEnq {
				mig, haveMig = e.At, true
			}
		}
	}
	var c Components
	end := t.EndAt
	if haveMig {
		// Migration happens at routing time, before the first enqueue:
		// submission ends at the migration instant and fabric transit runs
		// until the destination partition persists the call.
		c.Submit = mig - t.SubmitAt
		if !haveEnq {
			// Dropped in transit (destination shards all down) — or a
			// legacy unstitched trace that ended at migration.
			c.Migrate = end - mig
			return c, true
		}
		c.Migrate = enq1 - mig
	} else {
		if !haveEnq {
			// Never persisted (dropped at submission).
			c.Submit = end - t.SubmitAt
			return c, true
		}
		c.Submit = enq1 - t.SubmitAt
	}
	// Split a queue residence [from, to) at the caller's StartAfter: the
	// part before it is deferral, the part after is platform queueing.
	split := func(from, to sim.Time) (def, q sim.Time) {
		cut := min(max(t.StartAfter, from), to)
		return cut - from, to - cut
	}
	if !haveLease {
		// Died in the queue (e.g. dead-lettered during a shard outage).
		c.Deferred, c.Queue = split(enq1, end)
		return c, true
	}
	c.Deferred, c.Queue = split(enq1, lease1)
	c.Retry = leaseF - lease1
	schedEnd := end
	if haveDisp && dispLast >= leaseF {
		schedEnd = dispLast
	}
	c.Sched = schedEnd - leaseF
	c.Exec = end - schedEnd
	return c, true
}

// Agg accumulates component sums over a group of completed traces.
type Agg struct {
	Key   string
	Count int
	// Acked counts traces whose outcome was success.
	Acked int
	Sum   Components
	// E2E is the summed end-to-end latency (equals Sum.Sum()).
	E2E sim.Time
	Max sim.Time
}

// MeanE2E returns the group's mean end-to-end latency.
func (a Agg) MeanE2E() sim.Time {
	if a.Count == 0 {
		return 0
	}
	return a.E2E / sim.Time(a.Count)
}

// Mean returns the group's mean per-component breakdown.
func (a Agg) Mean() Components {
	if a.Count == 0 {
		return Components{}
	}
	n := sim.Time(a.Count)
	return Components{
		Submit:   a.Sum.Submit / n,
		Migrate:  a.Sum.Migrate / n,
		Deferred: a.Sum.Deferred / n,
		Queue:    a.Sum.Queue / n,
		Retry:    a.Sum.Retry / n,
		Sched:    a.Sum.Sched / n,
		Exec:     a.Sum.Exec / n,
	}
}

// Aggregate groups completed traces by key and accumulates their
// breakdowns, returning groups sorted by key. Incomplete traces are
// skipped.
func Aggregate(traces []*CallTrace, key func(*CallTrace) string) []Agg {
	byKey := make(map[string]*Agg)
	var keys []string
	for _, t := range traces {
		c, ok := t.Breakdown()
		if !ok {
			continue
		}
		k := key(t)
		a := byKey[k]
		if a == nil {
			a = &Agg{Key: k}
			byKey[k] = a
			keys = append(keys, k)
		}
		a.Count++
		if t.Outcome == KindAck {
			a.Acked++
		}
		a.Sum.Submit += c.Submit
		a.Sum.Migrate += c.Migrate
		a.Sum.Deferred += c.Deferred
		a.Sum.Queue += c.Queue
		a.Sum.Retry += c.Retry
		a.Sum.Sched += c.Sched
		a.Sum.Exec += c.Exec
		lat := t.Latency()
		a.E2E += lat
		if lat > a.Max {
			a.Max = lat
		}
	}
	sort.Strings(keys)
	out := make([]Agg, 0, len(keys))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

// FormatArg renders an event's arg for humans, per kind.
func FormatArg(k Kind, arg int64) string {
	switch k {
	case KindRoute:
		return fmt.Sprintf("dst=r%d", arg)
	case KindEnqueue:
		r, i := SplitRef(arg)
		return fmt.Sprintf("shard=dq-%d-%d", r, i)
	case KindLease:
		return fmt.Sprintf("attempt=%d", arg)
	case KindDispatch:
		r, i := SplitRef(arg)
		return fmt.Sprintf("worker=w-%d-%d", r, i)
	case KindExecEnd:
		if arg != 0 {
			return "err=1"
		}
		return "ok"
	case KindDownstreamRetry:
		return fmt.Sprintf("retries=%d", arg)
	case KindRetry:
		return fmt.Sprintf("backoff=%s", sim.Time(arg))
	case KindDeadLetter:
		return fmt.Sprintf("attempts=%d", arg)
	case KindMigrated:
		return fmt.Sprintf("dst-part=%d", arg)
	default:
		return ""
	}
}

// Render prints the trace's event timeline with offsets from submission
// — the critical path of the call as one block of text.
func (t *CallTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "call %d %s crit=%s quota=%s region=r%d", t.ID, t.Func, t.Crit, t.Quota, t.Region)
	if t.Done {
		fmt.Fprintf(&b, " e2e=%s outcome=%s", t.Latency(), t.Outcome)
	} else {
		b.WriteString(" (in flight)")
	}
	b.WriteString("\n")
	prev := t.SubmitAt
	for _, e := range t.Events {
		line := fmt.Sprintf("  +%-12s %-17s %s", e.At-t.SubmitAt, e.Kind, FormatArg(e.Kind, e.Arg))
		fmt.Fprintf(&b, "%s (Δ%s)\n", strings.TrimRight(line, " "), e.At-prev)
		prev = e.At
	}
	if t.Truncated > 0 {
		fmt.Fprintf(&b, "  … %d events truncated\n", t.Truncated)
	}
	return b.String()
}
