package policy

import "xfaas/internal/function"

// The prewarm policy's knobs, which New gives every Prewarm.
const (
	// prewarmAlpha is the Holt-Winters level smoothing factor in (0, 1].
	prewarmAlpha float64 = 0.3
	// prewarmBeta is the Holt-Winters trend smoothing factor in [0, 1].
	prewarmBeta float64 = 0.1
	// prewarmHorizonTicks is how many scheduling ticks ahead the arrival
	// forecast looks when scaling the poll budget.
	prewarmHorizonTicks int = 5
	// prewarmMaxBoost caps the forecast-driven poll budget multiplier.
	prewarmMaxBoost float64 = 4
	// prewarmTopK is how many of the hottest functions are pre-warmed.
	prewarmTopK int = 16
	// prewarmIntervalTicks is the pre-warm cadence in scheduling ticks.
	prewarmIntervalTicks int = 30
)

// Prewarm is the predictive pre-warm/pre-push policy: a Holt-Winters
// forecaster over per-tick admitted arrivals (on the simulation clock)
// scales the poll budget ahead of a forecast spike — priming FuncBuffers
// before the wave lands — and periodically pre-warms the JIT state of
// the hottest functions on the region's workers, trading pre-warm work
// for cold-start exposure.
type Prewarm struct {
	Base
	h Host
	// The knobs, named after the constants New fills them from.
	alpha, beta   float64
	horizonTicks  int
	maxBoost      float64
	topK          int
	intervalTicks int

	hw         HoltWinters
	rates      FuncRates
	arrivals   float64 // admitted this tick
	sinceWarm  int
	topScratch []string
}

// Attach implements Policy.
func (p *Prewarm) Attach(h Host) {
	p.h = h
	p.hw = HoltWinters{Alpha: p.alpha, Beta: p.beta}
	p.rates = FuncRates{Alpha: p.alpha}
}

// OnAdmit feeds the forecaster's arrival stream.
func (p *Prewarm) OnAdmit(c *function.Call) {
	p.arrivals++
	p.rates.Observe(c.Spec.Name)
}

// Tick polls with a forecast-scaled budget, then runs the default
// pipeline and the periodic pre-warm pass.
func (p *Prewarm) Tick() {
	mult := 1.0
	if lvl := p.hw.Level(); lvl > 1e-9 {
		if f := p.hw.Forecast(p.horizonTicks); f > lvl {
			mult = f / lvl
			mult = min(mult, p.maxBoost)
		}
	}
	p.arrivals = 0
	p.h.PollScaled(mult)
	p.hw.Observe(p.arrivals)
	p.rates.Roll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DefaultDispatch()
	p.sinceWarm++
	if p.sinceWarm >= p.intervalTicks {
		p.sinceWarm = 0
		p.topScratch = p.rates.TopK(p.topK, p.topScratch)
		if len(p.topScratch) > 0 {
			p.h.PrewarmFunctions(p.topScratch)
		}
	}
}
