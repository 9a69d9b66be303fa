// Package jit models XFaaS's cooperative JIT compilation (paper §4.5.1,
// §5.4). Function code runs at a slowdown until it is JIT-compiled. A
// worker can obtain optimized code two ways:
//
//   - self-profiling: the runtime instruments the function from its first
//     execution of a code version and needs a long wall-clock profiling
//     budget before it can compile (the paper measures 21 minutes for a
//     worker to reach max RPS this way);
//   - seeded compilation: a seeder worker's profiling data is distributed
//     to the worker's locality group, letting workers compile hot
//     functions immediately — even before receiving calls — at a bounded
//     compile rate (the paper measures 3 minutes to max RPS).
//
// The Distributor drives the three-phase code rollout: a small canary set,
// then 2% of workers including per-group seeders that profile, then
// everyone else with seeded profiles.
package jit

import (
	"time"

	"xfaas/internal/sim"
)

// The JIT model's constants fit the paper's measurements: the compile
// timings reproduce Figure 12's 3-minute vs 21-minute ramp.
const (
	// slowdown is the execution-time multiplier for unoptimized code.
	slowdown = 3.0
	// ProfileTime is the wall-clock instrumentation budget per function
	// before self-profiled compilation can start, measured from the
	// function's first execution on the new version.
	ProfileTime time.Duration = 18 * time.Minute
	// CompileDelay is the time to compile one function once its profile
	// exists.
	CompileDelay time.Duration = 2 * time.Minute
	// seededCompilePerFunc is the per-function cost of precompiling from
	// a seeded profile; hot functions compile in a queue at this rate at
	// runtime start.
	seededCompilePerFunc time.Duration = 3 * time.Second
)

type funcState int

const (
	stateCold funcState = iota
	stateProfiling
	stateOptimized
)

type funcJIT struct {
	state funcState
	// readyAt is when the function becomes optimized (valid while
	// profiling/compiling).
	readyAt sim.Time
}

// Runtime is the per-worker JIT state for the currently deployed code
// version.
type Runtime struct {
	funcs map[string]*funcJIT
	// Compilations counts optimizations performed, split by source.
	SelfCompilations   uint64
	SeededCompilations uint64
}

// NewRuntime returns a runtime with nothing optimized.
func NewRuntime() *Runtime {
	return &Runtime{funcs: make(map[string]*funcJIT)}
}

// SwitchVersion deploys a new code version, discarding all JIT state. If
// seeded, the hot functions precompile immediately in a queue (one per
// seededCompilePerFunc) without needing any calls; otherwise every
// function must self-profile from its first use.
func (r *Runtime) SwitchVersion(now sim.Time, seeded bool, hot []string) {
	r.funcs = make(map[string]*funcJIT, len(hot))
	if !seeded {
		return
	}
	for i, fn := range hot {
		r.funcs[fn] = &funcJIT{
			state:   stateProfiling,
			readyAt: now + time.Duration(i+1)*seededCompilePerFunc,
		}
		r.SeededCompilations++
	}
}

// Prewarm marks the given functions optimized immediately — the steady
// state of a long-running worker whose code was compiled before the
// simulation window begins.
func (r *Runtime) Prewarm(fns []string) {
	for _, fn := range fns {
		r.funcs[fn] = &funcJIT{state: stateOptimized}
	}
}

func (r *Runtime) fs(fn string) *funcJIT {
	f, ok := r.funcs[fn]
	if !ok {
		f = &funcJIT{state: stateCold}
		r.funcs[fn] = f
	}
	return f
}

// SpeedFactor returns the execution-time multiplier for one call of fn at
// virtual time now (1 when optimized, slowdown otherwise). The first use
// of a cold function starts its instrumentation clock.
func (r *Runtime) SpeedFactor(fn string, now sim.Time) float64 {
	f := r.fs(fn)
	switch f.state {
	case stateCold:
		f.state = stateProfiling
		f.readyAt = now + ProfileTime + CompileDelay
		r.SelfCompilations++
		return slowdown
	case stateProfiling:
		if now >= f.readyAt {
			f.state = stateOptimized
			return 1
		}
		return slowdown
	default:
		return 1
	}
}

// Target is the rollout-facing surface of a worker's runtime.
type Target interface {
	// SwitchVersion deploys a new code version; seeded indicates that the
	// locality group's seeder profile accompanies the code.
	SwitchVersion(seeded bool, hot []string)
}

// The shape of the three-phase code push (paper §4.5.1: phases at a small
// set, 2% + seeders, then all workers; the paper cites up to 25 minutes of
// HHVM profiling).
const (
	// phase1Frac and phase2Frac are the worker fractions switched in the
	// first two phases.
	phase1Frac float64 = 0.002
	phase2Frac float64 = 0.02
	// phase1Dur is the canary soak time; phase2Dur is the seeder
	// profiling time before the fleet-wide seeded push.
	phase1Dur time.Duration = 10 * time.Minute
	phase2Dur time.Duration = 25 * time.Minute
)

// Distributor performs staged code pushes over locality groups of
// targets. Each group's phase-2 slice acts as its seeders; the phase-3
// fleet push is seeded.
type Distributor struct {
	engine *sim.Engine
	// Pushes counts completed rollouts.
	Pushes uint64
}

// NewDistributor returns a distributor on the engine.
func NewDistributor(engine *sim.Engine) *Distributor { return &Distributor{engine: engine} }

// Push rolls a new code version with hot-function list hot out to the groups.
// Phase 1 switches a canary slice unseeded; phase 2 switches the seeder
// slice unseeded (they profile); phase 3 switches the remainder seeded.
func (d *Distributor) Push(groups [][]Target, hot []string) {
	for _, group := range groups {
		group := group
		n := len(group)
		if n == 0 {
			continue
		}
		p1 := fracCount(n, phase1Frac)
		p2 := p1 + fracCount(n, phase2Frac)
		p2 = min(p2, n)
		for _, t := range group[:p1] {
			t.SwitchVersion(false, hot)
		}
		d.engine.Schedule(phase1Dur, func() {
			for _, t := range group[p1:p2] {
				t.SwitchVersion(false, hot)
			}
		})
		d.engine.Schedule(phase1Dur+phase2Dur, func() {
			for _, t := range group[p2:] {
				t.SwitchVersion(true, hot)
			}
		})
	}
	d.engine.Schedule(phase1Dur+phase2Dur, func() { d.Pushes++ })
}

// fracCount returns ceil(n·frac) with a minimum of 1 when frac > 0.
func fracCount(n int, frac float64) int {
	if frac <= 0 {
		return 0
	}
	return min(max(int(float64(n)*frac+0.999999), 1), n)
}
