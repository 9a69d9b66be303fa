package slo

import (
	"fmt"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

const (
	// UtilWindow is the utilization timeline resolution: each accountant
	// tick closes one window and records its mean utilization.
	UtilWindow time.Duration = time.Minute
	// critHighLatency is the completion-latency target for CritHigh calls;
	// a completion slower than this is an SLO miss.
	critHighLatency time.Duration = 60 * time.Second
	// fastWindow and slowWindow are the two burn-rate evaluation windows:
	// the fast one catches onset, the slow one filters blips (see Engine).
	fastWindow time.Duration = 5 * time.Minute
	slowWindow time.Duration = time.Hour
	// EvalInterval is how often burn rates are evaluated and alert
	// transitions emitted into the control event ring.
	EvalInterval time.Duration = 30 * time.Second
	// burnThreshold is the burn-rate level at which an alert fires; 1.0
	// means "consuming error budget exactly as fast as it accrues".
	burnThreshold float64 = 1.0
)

// errorBudget is the per-class error budget: the fraction of observations
// allowed to miss the objective. Burn rate is the observed bad fraction
// divided by the budget.
var errorBudget = [numCrit]float64{
	function.CritLow:    0.05,
	function.CritNormal: 0.05,
	function.CritHigh:   0.01,
}

// classState tracks one criticality class's objective over the two burn
// windows. Each window keeps a good-count and a total-count sliding rate;
// bad fraction = 1 − good/total.
type classState struct {
	goodFast *stats.WindowRate
	totFast  *stats.WindowRate
	goodSlow *stats.WindowRate
	totSlow  *stats.WindowRate
	good     *stats.Counter
	bad      *stats.Counter
	burnFast *stats.Gauge
	burnSlow *stats.Gauge
	firingG  *stats.Gauge
	firing   bool
	fires    int
	clears   int
}

// Engine evaluates per-criticality SLOs with multi-window burn-rate
// alerting (Google SRE style, on the simulated clock). CritHigh's
// objective is completion latency (e2e ≤ critHighLatency); the
// delay-tolerant classes' objective is goodput within deadline. Every
// completion and dead-letter is an observation; an EvalInterval ticker
// computes burn = badFraction/budget over the fast (5 m) and slow (1 h)
// windows and emits "slo.fire"/"slo.clear" transitions into the control
// event ring — an alert fires when BOTH windows burn at or above
// threshold and clears when either recovers. All hook methods are
// nil-safe and allocation-free.
type Engine struct {
	control func(kind, detail string)
	classes [numCrit]classState
}

// NewEngine builds the SLO engine, registering its slo_* metric families
// in reg. control receives alert transitions (pass the trace recorder's
// Control method); nil means transitions are not logged. The section holds
// only switches the caller has acted on; benchmark/ pins the signature.
func NewEngine(reg *stats.Registry, _ config.Observe, control func(kind, detail string)) *Engine {
	e := &Engine{control: control}
	if e.control == nil {
		e.control = func(string, string) {}
	}
	fastSlot := fastWindow / 10
	slowSlot := slowWindow / 12
	goodCtr := reg.CounterVec("slo_good_total", "crit")
	badCtr := reg.CounterVec("slo_bad_total", "crit")
	burnFast := reg.GaugeVec("slo_burn_fast", "crit")
	burnSlow := reg.GaugeVec("slo_burn_slow", "crit")
	firing := reg.GaugeVec("slo_alert_firing", "crit")
	for i := range e.classes {
		name := function.Criticality(i).String()
		e.classes[i] = classState{
			goodFast: stats.NewWindowRate(fastSlot, 10),
			totFast:  stats.NewWindowRate(fastSlot, 10),
			goodSlow: stats.NewWindowRate(slowSlot, 12),
			totSlow:  stats.NewWindowRate(slowSlot, 12),
			good:     goodCtr.With(name),
			bad:      badCtr.With(name),
			burnFast: burnFast.With(name),
			burnSlow: burnSlow.With(name),
			firingG:  firing.With(name),
		}
	}
	return e
}

// Observe records a completed call against its class's objective.
func (e *Engine) Observe(c *function.Call, now sim.Time) {
	if e == nil {
		return
	}
	good := true
	if c.Criticality() == function.CritHigh {
		good = now-c.SubmitTime <= sim.Time(critHighLatency)
	} else {
		good = !c.Expired(now)
	}
	e.observe(critIndex(c.Criticality()), now, good)
}

// ObserveDeadLetter records a dead-lettered call as an objective miss for
// its class, whatever the disposition.
func (e *Engine) ObserveDeadLetter(c *function.Call, now sim.Time) {
	if e == nil {
		return
	}
	e.observe(critIndex(c.Criticality()), now, false)
}

func (e *Engine) observe(ci int, now sim.Time, good bool) {
	cs := &e.classes[ci]
	cs.totFast.Add(now, 1)
	cs.totSlow.Add(now, 1)
	if good {
		cs.goodFast.Add(now, 1)
		cs.goodSlow.Add(now, 1)
		cs.good.Inc()
	} else {
		cs.bad.Inc()
	}
}

// burn returns badFraction/budget for one window; an empty window burns 0.
func burn(good, tot *stats.WindowRate, now sim.Time, budget float64) float64 {
	t := tot.Total(now)
	if t <= 0 {
		return 0
	}
	return max(1-good.Total(now)/t, 0) / budget
}

// Eval computes burn rates for every class, updates the slo_* gauges, and
// emits fire/clear transitions. Called from the platform's EvalInterval
// ticker.
func (e *Engine) Eval(now sim.Time) {
	for i := range e.classes {
		cs := &e.classes[i]
		budget := errorBudget[i]
		bf := burn(cs.goodFast, cs.totFast, now, budget)
		bs := burn(cs.goodSlow, cs.totSlow, now, budget)
		cs.burnFast.Set(bf)
		cs.burnSlow.Set(bs)
		if !cs.firing && bf >= burnThreshold && bs >= burnThreshold {
			cs.firing = true
			cs.fires++
			cs.firingG.Set(1)
			e.control("slo.fire", fmt.Sprintf("crit=%s burn_fast=%.2f burn_slow=%.2f budget=%.3f",
				function.Criticality(i), bf, bs, budget))
		} else if cs.firing && (bf < burnThreshold || bs < burnThreshold) {
			cs.firing = false
			cs.clears++
			cs.firingG.Set(0)
			e.control("slo.clear", fmt.Sprintf("crit=%s burn_fast=%.2f burn_slow=%.2f",
				function.Criticality(i), bf, bs))
		}
	}
}

// ClassSnapshot is one criticality class's SLO state at one instant.
type ClassSnapshot struct {
	Crit      string  `json:"crit"`
	Objective string  `json:"objective"`
	Budget    float64 `json:"budget"`
	Good      float64 `json:"good_total"`
	Bad       float64 `json:"bad_total"`
	BurnFast  float64 `json:"burn_fast"`
	BurnSlow  float64 `json:"burn_slow"`
	Firing    bool    `json:"firing"`
	Fires     int     `json:"fires"`
	Clears    int     `json:"clears"`
}

// SLOSnapshot is the SLO engine's state at one instant, served by
// GET /slo and the xfaas-inspect -slo table.
type SLOSnapshot struct {
	NowSecs        float64         `json:"now_secs"`
	BurnThreshold  float64         `json:"burn_threshold"`
	FastWindowSecs float64         `json:"fast_window_secs"`
	SlowWindowSecs float64         `json:"slow_window_secs"`
	Classes        []ClassSnapshot `json:"classes"`
}

// Snapshot returns the engine's state at now, recomputing burn rates so
// the snapshot is consistent with the observation stream even between
// Eval ticks.
func (e *Engine) Snapshot(now sim.Time) SLOSnapshot {
	if e == nil {
		return SLOSnapshot{}
	}
	s := SLOSnapshot{
		NowSecs:        now.Seconds(),
		BurnThreshold:  burnThreshold,
		FastWindowSecs: fastWindow.Seconds(),
		SlowWindowSecs: slowWindow.Seconds(),
	}
	for i := range e.classes {
		cs := &e.classes[i]
		budget := errorBudget[i]
		obj := "goodput-within-deadline"
		if function.Criticality(i) == function.CritHigh {
			obj = fmt.Sprintf("e2e<=%s", critHighLatency)
		}
		s.Classes = append(s.Classes, ClassSnapshot{
			Crit:      function.Criticality(i).String(),
			Objective: obj,
			Budget:    budget,
			Good:      cs.good.Value(),
			Bad:       cs.bad.Value(),
			BurnFast:  burn(cs.goodFast, cs.totFast, now, budget),
			BurnSlow:  burn(cs.goodSlow, cs.totSlow, now, budget),
			Firing:    cs.firing,
			Fires:     cs.fires,
			Clears:    cs.clears,
		})
	}
	return s
}
