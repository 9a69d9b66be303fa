package scheduler

import (
	"sort"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
)

// Hedged dispatch — the tail-at-scale defense against gray workers. A
// CritHigh call whose execution outruns its function's online hedge delay
// (a quantile of recent exec times) gets one speculative copy dispatched
// to a different, non-gray worker through the scheduler's own completion
// callback; the first completion wins and the loser's execution is
// cancelled (worker.Cancel — resource unwind, no callback). A per-region
// token budget shared by the region's scheduler replicas bounds the extra
// load: every primary dispatch earns HedgeBudgetFrac of a token, every
// hedge spends one, so hedge amplification can never exceed
// 1 + HedgeBudgetFrac (plus the constant burst) — the hedge-amplification
// invariant probe enforces the same inequality continuously from the
// counters.
//
// Conservation: the speculative copy is a shallow clone sharing the
// primary's call ID and never touches a DurableQ, so the invariant ledger
// keeps exactly one entry per call. The ledger tracks the clone's worker
// as a hedge ref (OnHedgeDispatch); a hedge win swaps the entry's
// execution ref to the winner (OnHedgeWin) before the normal completion
// flow settles it, and every other disposition clears the ref
// (OnHedgeCancel) — so lease exclusivity and the orphaned-copy machinery
// keep working unchanged.

const (
	// hedgeQuantile of the function's recent exec times is the hedge
	// delay: a call still running past this quantile is assumed stuck on
	// a straggler and gets a speculative copy.
	hedgeQuantile float64 = 0.95
	// hedgeWindow is how many recent exec-time samples per function the
	// online quantile estimator keeps.
	hedgeWindow int = 64
	// hedgeMinSamples is the estimator's warm-up: no hedging for a
	// function until it has observed at least this many completions.
	hedgeMinSamples int = 8
	// HedgeBudgetFrac is the token fraction earned per primary dispatch —
	// the hedge-amplification bound above 1.
	HedgeBudgetFrac float64 = 0.05
	// HedgeBudgetBurst is each region's initial token balance, so hedging
	// can start before the budget has earned anything.
	HedgeBudgetBurst float64 = 10
)

// HedgeBudget is one region's hedge token bucket, shared by its scheduler
// replicas (mirroring the per-shard retry budgets: earn a fraction per
// unit of real work, spend whole tokens on speculative work).
type HedgeBudget struct {
	frac   float64
	tokens float64
	// Earned counts primary dispatches (earn events); Spent counts
	// hedges dispatched. The hedge-amplification probe checks
	// Spent ≤ frac·Earned + burst.
	Earned stats.Counter
	Spent  stats.Counter
}

// NewHedgeBudget returns a bucket earning frac per primary dispatch,
// starting with burst tokens.
func NewHedgeBudget(frac, burst float64) *HedgeBudget {
	return &HedgeBudget{frac: frac, tokens: burst}
}

// Earn credits one primary dispatch.
func (b *HedgeBudget) Earn() {
	b.tokens += b.frac
	b.Earned.Inc()
}

// Available reports whether a whole token is ready to spend.
func (b *HedgeBudget) Available() bool { return b.tokens >= 1 }

// Spend debits one token for a dispatched hedge.
func (b *HedgeBudget) Spend() {
	b.tokens--
	b.Spent.Inc()
}

// hedgeEstimator is one function's online hedge-delay estimator: a ring
// of the most recent successful exec times, answering quantile queries
// from a sorted copy that stays valid until the next sample arrives —
// every dispatch asks, only completions observe. No hedging happens for a
// function until it has observed hedgeMinSamples completions.
type hedgeEstimator struct {
	ring  []float64
	next  int
	total int
	// sorted is the ring in ascending order, emptied by every Observe.
	sorted []float64
}

func newHedgeEstimator(window int) *hedgeEstimator {
	window = max(window, 1)
	return &hedgeEstimator{
		ring:   make([]float64, 0, window),
		sorted: make([]float64, 0, window),
	}
}

// Observe folds one exec-time sample (seconds) into the window.
func (e *hedgeEstimator) Observe(secs float64) {
	if len(e.ring) < cap(e.ring) {
		e.ring = append(e.ring, secs)
	} else {
		e.ring[e.next] = secs
	}
	e.next = (e.next + 1) % cap(e.ring)
	e.total++
	e.sorted = e.sorted[:0]
}

// Samples returns the total samples ever observed (warm-up gating counts
// all of them, not just the retained window).
func (e *hedgeEstimator) Samples() int { return e.total }

// Quantile returns the q-quantile of the retained window in seconds
// (0 with no samples). q clamps to [0, 1]; the estimate is the
// floor-indexed order statistic, so a single sample answers every
// quantile with itself.
func (e *hedgeEstimator) Quantile(q float64) float64 {
	n := len(e.ring)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	q = min(q, 1)
	if len(e.sorted) == 0 {
		e.sorted = append(e.sorted, e.ring...)
		sort.Float64s(e.sorted)
	}
	return e.sorted[int(q*float64(n-1))]
}

// armHedge runs after every successful primary dispatch. It credits the
// region's hedge budget and, for a CritHigh call whose function has a
// warmed-up estimator, arms the flight's hedge-delay timer. No-op (one
// nil check) while hedging is disabled.
func (s *Scheduler) armHedge(f *flight) {
	if s.HedgeBudget == nil {
		return
	}
	s.HedgeBudget.Earn()
	c := f.call
	if c.Spec.Criticality != function.CritHigh {
		return
	}
	est := s.buffers[c.Spec.Name].est
	if est == nil || est.Samples() < hedgeMinSamples {
		return
	}
	delay := time.Duration(est.Quantile(hedgeQuantile) * float64(time.Second))
	delay = max(delay, time.Millisecond)
	if f.fire == nil {
		f.fire = func() { s.fireHedge(f) }
	}
	f.armed = true
	f.timer = s.engine.Schedule(delay, f.fire)
}

// fireHedge runs when a primary execution outlives its hedge delay: if
// the budget has a token, dispatch one speculative copy to a different
// usable worker. A fire for a flight that is no longer running (its
// process crashed) is stale and does nothing.
func (s *Scheduler) fireHedge(f *flight) {
	if s.down || !f.armed || s.running[f.call.ID] != f {
		return
	}
	// The timer has fired: the flight stays armed only if a copy launches.
	f.armed = false
	if !s.HedgeBudget.Available() {
		s.HedgeDenied.Inc()
		return
	}
	c := f.call
	pool := s.lb.GroupPool(c.Spec)
	var hw *worker.Worker
	for tries := 0; tries < 4 && hw == nil; tries++ {
		cand := pool[s.hedgeSrc.Intn(len(pool))]
		if cand != f.w && s.lb.Usable(cand) {
			hw = cand
		}
	}
	if hw == nil {
		return
	}
	cl := *c
	clone := &cl
	if !hw.TryExecute(clone, s.completeFn) {
		return
	}
	s.HedgeBudget.Spend()
	f.armed = true
	f.clone, f.hw = clone, hw
	s.Hedged.Inc()
	s.Obs.Emit(c, trace.KindHedgeDispatch, trace.Ref(hw.ID.Region, hw.ID.Index))
}

// completeHedged intercepts completion callbacks for a flight with an
// armed hedge. It reports whether the completion was fully handled here
// (the caller must then skip the normal settle path).
func (s *Scheduler) completeHedged(f *flight, c *function.Call, err error) bool {
	p := f.call
	if c == f.clone {
		if err != nil {
			// The speculative copy lost by failing. Drop it; the primary
			// (or, if the primary already failed too, the normal nack
			// path) finishes the call.
			s.Obs.Emit(p, trace.KindHedgeCancel, trace.Ref(f.hw.ID.Region, f.hw.ID.Index))
			f.armed, f.clone, f.hw = false, nil, nil
			if f.primaryFailed {
				s.settle(f, p, f.primaryErr)
			}
			return true
		}
		// The speculative copy won: cancel the primary execution, move
		// the flight and the ledger's execution ref to the winner, graft
		// the winner's execution stamps onto the primary call object, and
		// settle it through the normal success path.
		hw := f.hw
		if !f.primaryFailed {
			f.w.Cancel(p.ID)
		}
		f.w = hw
		p.State = c.State
		p.ExecStartAt = c.ExecStartAt
		p.ExecEndAt = c.ExecEndAt
		s.HedgeWins.Inc()
		s.Obs.Emit(p, trace.KindHedgeWin, trace.Ref(hw.ID.Region, hw.ID.Index))
		s.settle(f, p, nil)
		return true
	}
	// The primary completed.
	if err != nil && f.clone != nil {
		// Primary failed while the speculative copy still runs: swallow
		// the failure — the clone is the in-flight retry.
		f.primaryFailed = true
		f.primaryErr = err
		return true
	}
	// Primary won, or failed before the hedge fired: cancel the copy or
	// disarm the timer, then settle normally.
	s.disarm(f)
	return false
}

// disarm tears f's hedge down: the timer is stopped and a running
// speculative copy is cancelled.
func (s *Scheduler) disarm(f *flight) {
	f.timer.Stop()
	if f.clone != nil {
		f.hw.Cancel(f.call.ID)
		s.HedgeCancelled.Inc()
		s.Obs.Emit(f.call, trace.KindHedgeCancel, trace.Ref(f.hw.ID.Region, f.hw.ID.Index))
	}
}

// hedgeObserve feeds one successful exec time into the function's
// hedge-delay estimator.
func (s *Scheduler) hedgeObserve(fn string, secs float64) {
	b := s.buffers[fn]
	if b.est == nil {
		b.est = newHedgeEstimator(hedgeWindow)
	}
	b.est.Observe(secs)
}
