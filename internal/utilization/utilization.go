// Package utilization implements the Utilization Controller (paper
// §4.6.2): it monitors worker utilization and adjusts the opportunistic
// scaling factor S so that the fleet converges on a target utilization.
// Opportunistic functions' RPS limits are r = r0·S; when workers are
// underutilized S rises (time-shifted work drains), and when they are
// overloaded S can fall all the way to zero, pausing opportunistic
// scheduling. S is published through the configuration store (the paper
// stores it in a database that schedulers poll — same staleness
// semantics).
package utilization

import (
	"time"

	"xfaas/internal/config"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// ScaleKey is the config-store key S is published under.
const ScaleKey = "utilization/opportunistic-scale"

// The control loop is gentle.
const (
	// Gain is the additive step per interval per unit of error.
	Gain float64 = 4.0
	// maxScale bounds S from above (functions may run above their preset
	// limit when the fleet is idle, but not unboundedly).
	maxScale float64 = 8.0
	// Interval is the time between adjustments.
	Interval time.Duration = 30 * time.Second
)

// Params tune the controller.
type Params struct {
	// Target is the desired mean worker CPU utilization.
	Target float64
}

// DefaultParams target a high utilization.
func DefaultParams() Params {
	return Params{Target: 0.80}
}

// Controller runs the feedback loop.
type Controller struct {
	engine *sim.Engine
	params Params
	store  *config.Store
	// UtilizationFn returns the current mean worker CPU utilization.
	UtilizationFn func() float64

	s float64
	// gain and maxScale are Gain and maxScale; tests vary them.
	gain, maxScale float64

	Adjustments stats.Counter
	// Series records S per minute for Figure 11-style plots.
	Series *stats.TimeSeries
}

// New starts a controller with S = 1.
func New(engine *sim.Engine, params Params, store *config.Store, utilizationFn func() float64) *Controller {
	c := &Controller{
		engine:        engine,
		params:        params,
		store:         store,
		UtilizationFn: utilizationFn,
		s:             1,
		gain:          Gain,
		maxScale:      maxScale,
		Series:        stats.NewTimeSeries(time.Minute, stats.ModeMean),
	}
	store.Set(ScaleKey, c.s)
	engine.Every(Interval, c.tick)
	return c
}

// S returns the current scaling factor.
func (c *Controller) S() float64 { return c.s }

func (c *Controller) tick() {
	util := c.UtilizationFn()
	err := c.params.Target - util
	c.s += c.gain * err
	if c.s < 0 {
		c.s = 0
	}
	c.s = min(c.s, c.maxScale)
	c.store.Set(ScaleKey, c.s)
	c.Series.Record(c.engine.Now(), c.s)
	c.Adjustments.Inc()
}
