package policy

import (
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/worker"
)

// pullMaxPerWorker bounds how many calls one worker may pull per
// scheduling tick, so a single idle machine cannot drain the whole RunQ
// before its load numbers catch up.
const pullMaxPerWorker int = 32

// Pull is Hiku-style pull scheduling: admission (poll, shed, buffer →
// RunQ) is unchanged, but instead of the WorkerLB pushing each call to
// the less loaded of two random choices, the idlest usable worker in the
// call's locality group pulls the next call. Ties among equally idle
// workers break by one RNG draw over the tied set — never by map or
// arrival order — so the worker pull-order is a pure function of the
// seed; a white-box test replays the draw sequence.
type Pull struct {
	Base
	h   Host
	src *rng.Source
	// maxPerWorker is the per-tick pull cap; New sets it to
	// pullMaxPerWorker.
	maxPerWorker int

	// ties is the scratch list of equally loaded candidates; counts
	// tracks per-tick pulls per worker pool index (maxPerWorker).
	ties   []*worker.Worker
	counts []int
}

// Attach implements Policy. The policy RNG is split here, at a fixed
// point in construction, so the draw stream is reproducible.
func (p *Pull) Attach(h Host) {
	p.h = h
	p.src = h.Rand()
}

// Tick runs the default admission pipeline, then pull-dispatches.
func (p *Pull) Tick() {
	clear(p.counts)
	p.h.DefaultPoll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DispatchWith(p.pick)
}

// pick selects the idlest usable worker in the call's group: lowest CPU
// load with a free thread, ties broken by one draw over the tied set in
// pool order. Returning (nil, false) stops the drain — every worker is
// saturated or has exhausted its per-tick pull allowance.
func (p *Pull) pick(c *function.Call) (*worker.Worker, bool) {
	pool := p.h.GroupPool(c.Spec)
	best := p.ties[:0]
	bestLoad := 0.0
	for _, w := range pool {
		if !p.h.WorkerUsable(w) {
			continue
		}
		if w.Running() >= w.Params().MaxConcurrency {
			continue
		}
		if p.countOf(w) >= p.maxPerWorker {
			continue
		}
		l := w.Load()
		if l >= 1 {
			continue
		}
		switch {
		case len(best) == 0 || l < bestLoad:
			best = append(best[:0], w)
			bestLoad = l
		case l == bestLoad:
			best = append(best, w)
		}
	}
	p.ties = best
	if len(best) == 0 {
		return nil, false
	}
	w := best[0]
	if len(best) > 1 {
		w = best[p.src.Intn(len(best))]
	}
	p.bump(w)
	return w, true
}

func (p *Pull) countOf(w *worker.Worker) int {
	if i := w.ID.Index; i < len(p.counts) {
		return p.counts[i]
	}
	return 0
}

func (p *Pull) bump(w *worker.Worker) {
	i := w.ID.Index
	for len(p.counts) <= i {
		p.counts = append(p.counts, 0)
	}
	p.counts[i]++
}
