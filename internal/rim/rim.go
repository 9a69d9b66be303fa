// Package rim implements the global Resource Isolation and Management
// system the paper's XFaaS leans on (§1.2): "Instead of making decisions
// locally, RIM collects global metrics across different systems to assist
// XFaaS in real-time coordination with downstream services."
//
// Components (downstream services, worker pools) register as metric
// sources. RIM periodically aggregates their utilization into a global
// view and publishes per-service pacing advice through the configuration
// store: a rate multiplier that is 1 while a service is comfortable,
// ramps down linearly between the soft and hard utilization thresholds,
// and bottoms out at a floor so probing traffic survives. Schedulers
// apply the multiplier when pacing functions that call the service —
// proactive, metrics-driven protection that complements the reactive
// AIMD back-pressure loop.
package rim

import (
	"sort"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/sim"
)

// AdviceKey is the config-store key the advice map is published under.
const AdviceKey = "rim/advice"

// Source is a component that reports a utilization-like pressure metric
// in [0, ∞) where 1.0 means "at capacity".
type Source interface {
	// RIMName identifies the component in the advice map.
	RIMName() string
	// RIMUtilization is the component's current pressure.
	RIMUtilization() float64
}

const (
	// interval between metric collections.
	interval time.Duration = 15 * time.Second
	// soft is the utilization below which advice is 1 (no constraint).
	soft float64 = 0.8
	// hard is the utilization at which advice reaches floor.
	hard float64 = 1.2
	// floor is the minimum multiplier (keeps recovery probes alive).
	floor float64 = 0.05
)

// Advice maps component name → rate multiplier in [floor, 1].
type Advice map[string]float64

// Multiplier returns the advice for name (1 when unknown).
func (a Advice) Multiplier(name string) float64 {
	if m, ok := a[name]; ok {
		return m
	}
	return 1
}

// RIM aggregates sources and publishes advice.
type RIM struct {
	store   *config.Store
	sources []Source

	current Advice
}

// New starts a RIM aggregating the given sources every interval.
func New(engine *sim.Engine, store *config.Store, sources ...Source) *RIM {
	r := &RIM{
		store:   store,
		sources: sources,
		current: Advice{},
	}
	engine.Every(interval, r.collect)
	return r
}

// MultiplierFor returns the current advice for a component (1 when
// unknown) — the scheduler-side read path.
func (r *RIM) MultiplierFor(name string) float64 { return r.current.Multiplier(name) }

func (r *RIM) collect() {
	advice := make(Advice, len(r.sources))
	// Deterministic iteration for reproducible publications.
	srcs := append([]Source(nil), r.sources...)
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].RIMName() < srcs[j].RIMName() })
	for _, s := range srcs {
		m := r.multiplier(s.RIMUtilization())
		advice[s.RIMName()] = m
	}
	r.current = advice
	r.store.Set(AdviceKey, advice)
}

// multiplier maps utilization to a pacing multiplier: 1 below soft,
// linear ramp to floor at hard, floor beyond.
func (r *RIM) multiplier(util float64) float64 {
	// The ramp's span is float64 arithmetic, not an exact constant: it
	// rounds to just below 0.4, which the seeded outputs record.
	hi := hard
	switch {
	case util <= soft:
		return 1
	case util >= hard:
		return floor
	default:
		frac := (util - soft) / (hi - soft)
		return 1 - frac*(1-floor)
	}
}
