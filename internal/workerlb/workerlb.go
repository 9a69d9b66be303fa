// Package workerlb implements the WorkerLB (paper §4.5.2): it routes a
// function call by randomly choosing two workers from the function's
// worker locality group and dispatching to the less loaded one — the
// power of two random choices, restricted for locality. With no locality
// assignment installed, the whole pool is one group (the ablation
// baseline of §5.2's A/B experiment).
package workerlb

import (
	"slices"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/locality"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/worker"
)

// LB balances one region's worker pool.
type LB struct {
	src     *rng.Source
	workers []*worker.Worker
	assign  *locality.Assignment
	groups  [][]*worker.Worker

	// Heartbeat health detection (nil health until StartHealthChecks).
	health []workerHealth
	onDown []func(*worker.Worker)

	// Completion-driven outlier detection (nil outliers until
	// StartOutlierDetection). outlierAlpha is the EWMA factor folding each
	// new inflation sample into a worker's score (higher = faster
	// reaction, noisier); outlierMinSamples is the per-worker warm-up
	// before ejection is possible.
	engine            *sim.Engine
	probation         time.Duration
	outlierAlpha      float64
	outlierMinSamples int
	outliers          []workerOutlier
	baseline          map[string]*fleetBaseline

	Dispatched stats.Counter
	Rejected   stats.Counter
	// DetectedDead / DetectedGray / DetectedRecovered count health-state
	// transitions observed by the prober.
	DetectedDead      stats.Counter
	DetectedGray      stats.Counter
	DetectedRecovered stats.Counter
	// Ejected / Reinstated count routing flips by the outlier scorer.
	Ejected    stats.Counter
	Reinstated stats.Counter

	// Obs, when set, receives control-plane events for health-state
	// transitions (the durable record chaos tests assert on).
	Obs *lifecycle.Spine
}

// New returns a load balancer over the pool with no locality assignment
// (single group).
func New(src *rng.Source, pool []*worker.Worker) *LB {
	if len(pool) == 0 {
		panic("workerlb: empty pool")
	}
	for i, w := range pool {
		if w.ID.Index != i {
			panic("workerlb: a worker's ID.Index must equal its position in the pool")
		}
	}
	return &LB{src: src, workers: pool, groups: [][]*worker.Worker{pool}}
}

// SetAssignment installs (or, with nil, removes) a locality assignment,
// re-slicing the pool into contiguous worker groups per the assignment's
// worker counts.
func (lb *LB) SetAssignment(a *locality.Assignment) {
	lb.assign = a
	if a == nil {
		lb.groups = [][]*worker.Worker{lb.workers}
		return
	}
	counts := a.WorkerCounts
	groups := make([][]*worker.Worker, len(counts))
	idx := 0
	for g, n := range counts {
		if idx+n > len(lb.workers) {
			n = len(lb.workers) - idx
		}
		groups[g] = lb.workers[idx : idx+n]
		idx += n
	}
	// Any remainder (rounding) goes to the last group.
	if idx < len(lb.workers) {
		last := len(groups) - 1
		groups[last] = lb.workers[idx-len(groups[last]) : len(lb.workers)]
	}
	lb.groups = groups
}

// Assignment returns the installed assignment (nil if none).
func (lb *LB) Assignment() *locality.Assignment { return lb.assign }

// Workers returns the full pool.
func (lb *LB) Workers() []*worker.Worker { return lb.workers }

// Alive returns the number of workers currently up.
func (lb *LB) Alive() int {
	n := 0
	for _, w := range lb.workers {
		if !w.Failed() {
			n++
		}
	}
	return n
}

// GroupPool returns the worker slice serving the given function.
func (lb *LB) GroupPool(spec *function.Spec) []*worker.Worker {
	if lb.assign == nil {
		return lb.groups[0]
	}
	g := lb.assign.GroupOf(spec.Name)
	if g >= len(lb.groups) || len(lb.groups[g]) == 0 {
		return lb.workers
	}
	return lb.groups[g]
}

// InGroup reports whether w is a legal placement for spec right now: a
// member of the function's locality group, or of the full pool when the
// group is empty/overflowed (GroupPool's fallback). The invariant
// checker's locality-containment check consults this at dispatch time.
func (lb *LB) InGroup(spec *function.Spec, w *worker.Worker) bool {
	return slices.Contains(lb.GroupPool(spec), w)
}

// Dispatch routes the call to a worker in its locality group using the
// power of two choices, invoking done(c, err) when execution completes.
// It reports false if no chosen worker could accept (the caller keeps
// the call queued — flow control).
func (lb *LB) Dispatch(c *function.Call, done worker.DoneFunc) bool {
	_, ok := lb.DispatchTo(c, done)
	return ok
}

// DispatchTo is Dispatch exposing the chosen worker, so callers can track
// which machine holds each in-flight call (lease evacuation on detected
// worker death needs the association).
func (lb *LB) DispatchTo(c *function.Call, done worker.DoneFunc) (*worker.Worker, bool) {
	pool := lb.GroupPool(c.Spec)
	if len(pool) == 0 {
		lb.Rejected.Inc()
		return nil, false
	}
	a := lb.choose(pool)
	b := lb.choose(pool)
	first, second := a, b
	if b.Load() < a.Load() {
		first, second = b, a
	}
	if first.TryExecute(c, done) {
		lb.Dispatched.Inc()
		return first, true
	}
	if second != first && second.TryExecute(c, done) {
		lb.Dispatched.Inc()
		return second, true
	}
	lb.Rejected.Inc()
	return nil, false
}

// choose draws one power-of-two candidate, redrawing a bounded number of
// times while the draw is marked Dead or Gray so detected-bad workers
// stop receiving traffic. If no healthy-marked worker turns up, the last
// draw stands and the dispatch fails in-band via admission control.
func (lb *LB) choose(pool []*worker.Worker) *worker.Worker {
	w := pool[lb.src.Intn(len(pool))]
	if lb.health == nil && lb.outliers == nil {
		return w
	}
	for tries := 0; tries < 3 && lb.StateOf(w) != Healthy; tries++ {
		w = pool[lb.src.Intn(len(pool))]
	}
	return w
}

// Usable reports whether w may receive new work right now: up, and (when
// health checking runs) detected Healthy. Pull-style policies consult it
// when selecting a worker, mirroring the routing-around the push path
// gets from choose().
func (lb *LB) Usable(w *worker.Worker) bool {
	if w.Failed() {
		return false
	}
	if lb.health == nil && lb.outliers == nil {
		return true
	}
	return lb.StateOf(w) == Healthy
}

// MeanUtilization returns the pool's average CPU utilization.
func (lb *LB) MeanUtilization() float64 {
	if len(lb.workers) == 0 {
		return 0
	}
	s := 0.0
	for _, w := range lb.workers {
		s += w.CPUUtilization()
	}
	return s / float64(len(lb.workers))
}

// GroupLoads returns the total CPU load per locality group (summed over
// its workers) for rebalancing. Totals — not per-worker means — measure
// each group's demand, so rebalancing converges instead of rewarding
// groups for being small.
func (lb *LB) GroupLoads() []float64 {
	out := make([]float64, len(lb.groups))
	for g, pool := range lb.groups {
		for _, w := range pool {
			out[g] += w.Load()
		}
	}
	return out
}
