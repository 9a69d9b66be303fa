package scheduler

import (
	"sort"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
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
	if window < 1 {
		window = 1
	}
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
	if q > 1 {
		q = 1
	}
	if len(e.sorted) == 0 {
		e.sorted = append(e.sorted, e.ring...)
		sort.Float64s(e.sorted)
	}
	return e.sorted[int(q*float64(n-1))]
}

// hedgeEntry tracks one armed or in-flight hedge. Entries are pooled and
// fire — the hedge-delay timer callback — is built once per object, so
// arming a hedge allocates nothing in steady state.
type hedgeEntry struct {
	id      uint64
	primary *function.Call
	clone   *function.Call
	pw, hw  *worker.Worker
	// primaryFailed marks a primary completion swallowed because the
	// speculative copy was still running (the clone became the retry).
	primaryFailed bool
	primaryErr    error
	timer         sim.Timer
	fire          func()
}

func (s *Scheduler) getHedge() *hedgeEntry {
	if n := len(s.freeHedge); n > 0 {
		e := s.freeHedge[n-1]
		s.freeHedge[n-1] = nil
		s.freeHedge = s.freeHedge[:n-1]
		return e
	}
	e := &hedgeEntry{}
	e.fire = func() { s.fireHedge(e) }
	return e
}

func (s *Scheduler) putHedge(e *hedgeEntry) {
	e.id = 0
	e.primary = nil
	e.clone = nil
	e.pw = nil
	e.hw = nil
	e.primaryFailed = false
	e.primaryErr = nil
	e.timer = sim.Timer{}
	s.freeHedge = append(s.freeHedge, e)
}

// armHedge runs after every successful primary dispatch. It credits the
// region's hedge budget and, for a CritHigh call whose function has a
// warmed-up estimator, schedules the hedge-delay timer. No-op (one nil
// check) while hedging is disabled.
func (s *Scheduler) armHedge(c *function.Call, w *worker.Worker) {
	if s.hedges == nil {
		return
	}
	s.HedgeBudget.Earn()
	if c.Spec.Criticality != function.CritHigh {
		return
	}
	est := s.est[c.Spec.Name]
	if est == nil || est.Samples() < hedgeMinSamples {
		return
	}
	delay := time.Duration(est.Quantile(hedgeQuantile) * float64(time.Second))
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	e := s.getHedge()
	e.id = c.ID
	e.primary = c
	e.pw = w
	s.hedges[c.ID] = e
	e.timer = s.engine.Schedule(delay, e.fire)
}

// fireHedge runs when a primary execution outlives its hedge delay: if
// the call is still in flight and the budget has a token, dispatch one
// speculative copy to a different usable worker.
func (s *Scheduler) fireHedge(e *hedgeEntry) {
	if s.down || s.hedges[e.id] != e {
		return
	}
	c := e.primary
	if _, running := s.inflight[c.ID]; !running {
		delete(s.hedges, e.id)
		s.putHedge(e)
		return
	}
	if !s.HedgeBudget.Available() {
		s.HedgeDenied.Inc()
		delete(s.hedges, e.id)
		s.putHedge(e)
		return
	}
	pool := s.lb.GroupPool(c.Spec)
	var hw *worker.Worker
	for tries := 0; tries < 4 && hw == nil; tries++ {
		cand := pool[s.hedgeSrc.Intn(len(pool))]
		if cand != e.pw && s.lb.Usable(cand) {
			hw = cand
		}
	}
	if hw == nil {
		delete(s.hedges, e.id)
		s.putHedge(e)
		return
	}
	cl := *c
	clone := &cl
	if !hw.TryExecute(clone, s.completeFn) {
		delete(s.hedges, e.id)
		s.putHedge(e)
		return
	}
	s.HedgeBudget.Spend()
	e.clone = clone
	e.hw = hw
	s.Hedged.Inc()
	s.Obs.Emit(c, trace.KindHedgeDispatch, trace.Ref(hw.ID.Region, hw.ID.Index))
}

// completeHedged intercepts completion callbacks for calls with a live
// hedge entry. It reports whether the completion was fully handled here
// (the caller must then skip the normal settle path).
func (s *Scheduler) completeHedged(c *function.Call, err error) bool {
	e := s.hedges[c.ID]
	if e == nil {
		return false
	}
	if c == e.clone {
		if err != nil {
			// The speculative copy lost by failing. Drop it; the primary
			// (or, if the primary already failed too, the normal nack
			// path) finishes the call.
			s.Obs.Emit(e.primary, trace.KindHedgeCancel, trace.Ref(e.hw.ID.Region, e.hw.ID.Index))
			e.clone = nil
			e.hw = nil
			if e.primaryFailed {
				p, perr := e.primary, e.primaryErr
				delete(s.hedges, p.ID)
				s.putHedge(e)
				s.settle(p, perr)
			}
			return true
		}
		// The speculative copy won: cancel the primary execution, move
		// in-flight tracking and the ledger's execution ref to the
		// winner, graft the winner's execution stamps onto the primary
		// call object, and settle it through the normal success path.
		p := e.primary
		hw := e.hw
		s.retrack(p, hw)
		if !e.primaryFailed {
			e.pw.Cancel(p.ID)
		}
		p.State = c.State
		p.ExecStartAt = c.ExecStartAt
		p.ExecEndAt = c.ExecEndAt
		s.HedgeWins.Inc()
		s.Obs.Emit(p, trace.KindHedgeWin, trace.Ref(hw.ID.Region, hw.ID.Index))
		delete(s.hedges, p.ID)
		s.putHedge(e)
		s.settle(p, nil)
		return true
	}
	// The primary completed.
	if err == nil {
		// Primary won: cancel the speculative copy (if it launched) or
		// disarm the timer, then settle normally.
		e.timer.Stop()
		if e.clone != nil {
			e.hw.Cancel(c.ID)
			s.HedgeCancelled.Inc()
			s.Obs.Emit(c, trace.KindHedgeCancel, trace.Ref(e.hw.ID.Region, e.hw.ID.Index))
		}
		delete(s.hedges, c.ID)
		s.putHedge(e)
		return false
	}
	if e.clone != nil {
		// Primary failed while the speculative copy still runs: swallow
		// the failure — the clone is the in-flight retry.
		e.primaryFailed = true
		e.primaryErr = err
		return true
	}
	// Primary failed before the hedge fired: disarm and nack normally.
	e.timer.Stop()
	delete(s.hedges, c.ID)
	s.putHedge(e)
	return false
}

// retrack moves the call's in-flight tracking to the hedge worker so the
// settle path (untrack, OnComplete, evacuation bookkeeping) sees the
// winner.
func (s *Scheduler) retrack(c *function.Call, to *worker.Worker) {
	w, ok := s.inflight[c.ID]
	if !ok || w == to {
		return
	}
	if m := s.inflightByWorker[w]; m != nil {
		delete(m, c.ID)
		if len(m) == 0 {
			delete(s.inflightByWorker, w)
		}
	}
	s.track(c, to)
}

// abortHedge tears one hedge down (evacuation of the primary's worker):
// the timer is disarmed and a live speculative copy is cancelled.
func (s *Scheduler) abortHedge(id uint64) {
	if s.hedges == nil {
		return
	}
	e := s.hedges[id]
	if e == nil {
		return
	}
	e.timer.Stop()
	if e.clone != nil {
		e.hw.Cancel(id)
		s.HedgeCancelled.Inc()
		s.Obs.Emit(e.primary, trace.KindHedgeCancel, trace.Ref(e.hw.ID.Region, e.hw.ID.Index))
	}
	delete(s.hedges, id)
	s.putHedge(e)
}

// hedgeObserve feeds one successful exec time into the function's
// hedge-delay estimator.
func (s *Scheduler) hedgeObserve(fn string, secs float64) {
	est := s.est[fn]
	if est == nil {
		est = newHedgeEstimator(hedgeWindow)
		s.est[fn] = est
	}
	est.Observe(secs)
}
