package workload

import (
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// SubmitFunc is how generated calls enter the platform: the platform's
// submitter tier, keyed by source region and client identity.
type SubmitFunc func(region cluster.RegionID, client string, c *function.Call) error

// Generator drives a population's arrival processes on the simulation
// engine, submitting calls through SubmitFunc. Arrivals are
// nonhomogeneous Poisson: each second, each function contributes
// Poisson(rate(t)) calls.
type Generator struct {
	engine *sim.Engine
	src    *rng.Source
	pop    *Population
	submit SubmitFunc
	// regionWeights distribute submissions across source regions
	// (typically the topology's capacity share).
	regionWeights []float64

	ticker *sim.Ticker

	Generated stats.Counter
	Errors    stats.Counter
	// ReceivedSeries is calls received per minute — Figure 2's top curve.
	ReceivedSeries *stats.TimeSeries
	// PerFuncReceived tracks one function's received curve when Focus is
	// set (Figure 4).
	Focus       string
	FocusSeries *stats.TimeSeries
}

// NewGenerator returns a generator ready to Start.
func NewGenerator(engine *sim.Engine, pop *Population, regionWeights []float64, submit SubmitFunc, src *rng.Source) *Generator {
	if len(regionWeights) == 0 {
		regionWeights = []float64{1}
	}
	return &Generator{
		engine:         engine,
		src:            src,
		pop:            pop,
		submit:         submit,
		regionWeights:  regionWeights,
		ReceivedSeries: stats.NewTimeSeries(time.Minute, stats.ModeSum),
		FocusSeries:    stats.NewTimeSeries(time.Minute, stats.ModeSum),
	}
}

// Start begins generating arrivals every second of virtual time.
func (g *Generator) Start() {
	if g.ticker != nil {
		return
	}
	g.ticker = g.engine.Every(time.Second, g.tick)
}

// Stop halts generation.
func (g *Generator) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
		g.ticker = nil
	}
}

func (g *Generator) pickRegion() cluster.RegionID {
	u := g.src.Float64()
	acc := 0.0
	for i, w := range g.regionWeights {
		acc += w
		if u < acc {
			return cluster.RegionID(i)
		}
	}
	return cluster.RegionID(len(g.regionWeights) - 1)
}

func (g *Generator) tick() {
	now := g.engine.Now()
	for _, m := range g.pop.Models {
		rate := m.RateAt(now)
		if rate <= 0 {
			continue
		}
		n := g.src.Poisson(rate)
		for i := 0; i < n; i++ {
			c := m.NewCall(now)
			g.Generated.Inc()
			g.ReceivedSeries.Record(now, 1)
			if m.Spec.Name == g.Focus {
				g.FocusSeries.Record(now, 1)
			}
			if err := g.submit(g.pickRegion(), m.Client, c); err != nil {
				g.Errors.Inc()
			}
		}
	}
}

// GrowthPoint is one sample of the adoption curve (Figure 3).
type GrowthPoint struct {
	// YearsSinceStart is the sample time in (fractional) years.
	YearsSinceStart float64
	// DailyCalls is the modeled daily invocation count, normalized so the
	// first point is 1.
	DailyCalls float64
}

// GrowthSeries models Figure 3: ~50x growth of daily invocations over 5
// years of steady compounding plus a sharp jump near the end (the launch
// of data-stream triggers at the end of 2022), sampled monthly.
func GrowthSeries(src *rng.Source) []GrowthPoint {
	const months = 60
	// Organic growth to ~20x over 5 years; the stream launch at month 54
	// multiplies the event-driven share sharply, landing the total at
	// ~50x.
	organicMonthly := 1.051 // 1.051^60 ≈ 20
	out := make([]GrowthPoint, months)
	level := 1.0
	for i := 0; i < months; i++ {
		jitter := 1 + 0.06*src.Normal()
		jitter = max(jitter, 0.85)
		v := level * jitter
		if i >= 54 {
			v *= 1 + 1.6*float64(i-53)/6 // stream-trigger launch ramp
		}
		out[i] = GrowthPoint{YearsSinceStart: float64(i) / 12, DailyCalls: v}
		level *= organicMonthly
	}
	return out
}
