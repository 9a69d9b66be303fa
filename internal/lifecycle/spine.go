// Package lifecycle is the call-lifecycle observer spine: the one place
// that knows who hears about a call transition. Every data-plane
// component holds a single nil-safe `Obs *Spine` field and emits each
// transition exactly once; the spine fans it out to the platform's three
// fixed consumers — the trace recorder, the invariant ledger and the SLO
// engine. The consumers are fields, not subscribers: there is no
// registration, and adding a hedge, a drain or a disposition means adding
// one trace.Kind and one Emit, not extending three observers by hand.
package lifecycle

import (
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
	"xfaas/internal/trace"
)

// Spine fans call transitions and control-plane events out to the
// platform's observers. All methods are safe on a nil receiver, and any
// consumer may be nil (each is then skipped).
type Spine struct {
	engine *sim.Engine
	tr     *trace.Recorder
	inv    *invariant.Checker
	slo    *slo.Engine
	// calls is false when no consumer wants per-call transitions (tracing
	// disabled, no ledger, no SLO engine), so Emit on an unobserved run is
	// one inlined check.
	calls bool
}

// New returns a spine over the given consumers, on engine's clock.
func New(engine *sim.Engine, tr *trace.Recorder, inv *invariant.Checker, e *slo.Engine) *Spine {
	return &Spine{
		engine: engine, tr: tr, inv: inv, slo: e,
		calls: tr.Enabled() || inv != nil || e != nil,
	}
}

// Emit reports one transition of c's lifecycle. arg's meaning is per
// kind (see the trace.Kind constants).
func (s *Spine) Emit(c *function.Call, k trace.Kind, arg int64) {
	if s == nil || !s.calls {
		return
	}
	s.emit(c, k, arg)
}

func (s *Spine) emit(c *function.Call, k trace.Kind, arg int64) {
	if k == trace.KindSubmit {
		s.tr.OnSubmit(c) // the sampling decision; opens the trace
	} else {
		s.tr.Record(c, k, arg)
	}
	s.inv.On(c, k, arg)
	if k.DeadLetter() {
		s.slo.ObserveDeadLetter(c, s.engine.Now())
	}
}

// Control logs one control-plane state transition (a crash, a health
// flip, a drain stage). Recorded even when per-call tracing is off.
func (s *Spine) Control(kind, detail string) {
	if s != nil {
		s.tr.Control(kind, detail)
	}
}

// Note sets the ambient context (an active fault, a drain) that later
// invariant violations carry.
func (s *Spine) Note(kind, detail string) {
	if s != nil {
		s.inv.Note(kind, detail)
	}
}
