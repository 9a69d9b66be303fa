package congestion

import (
	"fmt"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// Control bundles the three protection mechanisms for one function.
type Control struct {
	AIMD *AIMD
	Slow *SlowStart
	Conc *Concurrency
	// dispatched measures the function's achieved dispatch RPS for
	// comparison against the AIMD limit.
	dispatched *stats.WindowRate
}

// DispatchRPS returns the function's dispatch rate measured over the last
// 10 seconds.
func (c *Control) DispatchRPS(now sim.Time) float64 {
	return c.dispatched.PerSecond(now)
}

// Manager owns per-function congestion state and the periodic AIMD ticks.
// Schedulers consult it on every dispatch; workers report back-pressure
// exceptions and completions through it.
type Manager struct {
	engine *sim.Engine
	params AIMDParams
	// InitialLimit seeds each function's AIMD limit.
	InitialLimit float64
	// Advice, when set, returns RIM's pacing multiplier for a downstream
	// service (1 = unconstrained); it scales the AIMD limit of functions
	// calling that service — proactive global coordination on top of the
	// reactive back-pressure loop.
	Advice func(service string) float64

	funcs map[string]*Control
	// names mirrors funcs' keys, kept sorted so the tick (and any control
	// events it emits) visits functions in deterministic order.
	names []string

	DispatchDenied stats.Counter

	// Obs, when set, receives control-plane events for AIMD limit
	// decreases (back-pressure reactions).
	Obs *lifecycle.Spine
}

// NewManager returns a manager with the given parameters and starts the
// per-window AIMD tick on the engine.
func NewManager(engine *sim.Engine, params AIMDParams, _ SlowStartParams) *Manager {
	m := &Manager{
		engine:       engine,
		params:       params,
		InitialLimit: 1000,
		funcs:        make(map[string]*Control),
	}
	engine.Every(aimdWindow, m.tick)
	return m
}

func (m *Manager) tick() {
	now := m.engine.Now()
	for _, name := range m.names {
		ctl := m.funcs[name]
		d0 := ctl.AIMD.Decreases
		lim := ctl.AIMD.Tick(now)
		if ctl.AIMD.Decreases != d0 {
			m.Obs.Control("aimd.decrease", fmt.Sprintf("%s limit=%.1f", name, lim))
		}
	}
}

// Control returns (creating if needed) the control state for spec.
func (m *Manager) Control(spec *function.Spec) *Control {
	ctl, ok := m.funcs[spec.Name]
	if !ok {
		ctl = &Control{
			AIMD:       NewAIMD(m.params, m.InitialLimit),
			Slow:       NewSlowStart(),
			Conc:       NewConcurrency(spec.ConcurrencyLimit),
			dispatched: stats.NewWindowRate(time.Second, 10),
		}
		m.funcs[spec.Name] = ctl
		// Insertion sort: names grows one at a time and stays sorted.
		m.names = append(m.names, spec.Name)
		for i := len(m.names) - 1; i > 0 && m.names[i] < m.names[i-1]; i-- {
			m.names[i], m.names[i-1] = m.names[i-1], m.names[i]
		}
	}
	return ctl
}

// AllowDispatch checks AIMD rate, slow start and the concurrency limit
// for one dispatch of spec, accounting for it (including acquiring a
// concurrency slot) when admitted. The caller must pair a successful
// AllowDispatch with OnComplete.
func (m *Manager) AllowDispatch(spec *function.Spec) bool {
	now := m.engine.Now()
	ctl := m.Control(spec)
	limit := ctl.AIMD.Limit()
	if m.Advice != nil && spec.Downstream != "" {
		limit *= m.Advice(spec.Downstream)
	}
	if ctl.DispatchRPS(now)+0.1 > limit {
		m.DispatchDenied.Inc()
		return false
	}
	if !ctl.Slow.Allow(now) {
		m.DispatchDenied.Inc()
		return false
	}
	if !ctl.Conc.Acquire() {
		m.DispatchDenied.Inc()
		return false
	}
	ctl.dispatched.Add(now, 1)
	return true
}

// OnComplete releases the concurrency slot taken by AllowDispatch.
func (m *Manager) OnComplete(spec *function.Spec) {
	m.Control(spec).Conc.Release()
}

// OnBackpressure records a back-pressure exception attributed to spec.
func (m *Manager) OnBackpressure(spec *function.Spec) {
	m.Control(spec).AIMD.OnBackpressure(m.engine.Now())
}

// EachControl visits every function's control state in sorted name order
// (deterministic for invariant probes).
func (m *Manager) EachControl(fn func(name string, ctl *Control)) {
	for _, name := range m.names {
		fn(name, m.funcs[name])
	}
}
