package policy

import (
	"time"

	"xfaas/internal/function"
)

// The SPES policy's knobs, which New gives every SPES.
const (
	// spesPerf is the performance-vs-resource knob in [0, 1]: 0 conserves
	// resources (headroom reserved, opportunistic work deferred under
	// pressure, retries spread out, no pre-warming), 1 maximizes
	// performance (no reserved headroom, aggressive pre-warming, fastest
	// retry pacing).
	spesPerf float64 = 0.5
	// spesSpareTarget is the spare-capacity fraction reserved at perf 0;
	// the effective reservation is (1 - perf) × spareTarget.
	spesSpareTarget float64 = 0.3
	// spesTopK is the maximum pre-warm set size, reached at perf 1.
	spesTopK int = 16
	// spesIntervalTicks is the pre-warm cadence in scheduling ticks.
	spesIntervalTicks int = 30
)

// SPES is an SPES-style performance-vs-resource policy: one knob
// (perf ∈ [0,1]) moves the scheduler along the trade-off curve.
//
//   - Spare capacity: (1-perf) × spareTarget of the pool is reserved;
//     while measured spare capacity is below the reservation,
//     opportunistic-quota polling is gated so deferred work waits
//     durably (resources protected, time-shifted work delayed).
//   - Cold starts: ⌈perf × topK⌉ of the hottest functions are
//     pre-warmed every intervalTicks (performance bought with pre-warm
//     work and resident JIT state).
//   - Retry pacing: redeliveries back off at (2-perf) × the function's
//     base, via the retry-placement hook — the resource end spreads
//     retry load out, the performance end retries at full speed.
type SPES struct {
	Base
	h Host
	// The knobs, named after the constants New fills them from.
	perf, spareTarget float64
	topK              int
	intervalTicks     int

	rates      FuncRates
	gated      bool
	sinceWarm  int
	topScratch []string
}

// Attach implements Policy.
func (p *SPES) Attach(h Host) {
	p.h = h
	p.rates = FuncRates{Alpha: 0.3}
}

// OnAdmit feeds the pre-warm ranking.
func (p *SPES) OnAdmit(c *function.Call) { p.rates.Observe(c.Spec.Name) }

// RetryBase implements the retry-placement hook: scale the function's
// base backoff by (2 - Perf).
func (p *SPES) RetryBase(c *function.Call) (time.Duration, bool) {
	base := c.Spec.Retry.Backoff
	if base <= 0 {
		return 0, false
	}
	return time.Duration(float64(base) * (2 - p.perf)), true
}

// Tick gates opportunistic polling on the spare-capacity reservation,
// then runs the default pipeline and the scaled pre-warm pass.
func (p *SPES) Tick() {
	reserve := (1 - p.perf) * p.spareTarget
	spare := 1 - p.h.PoolUtilization()
	gate := spare < reserve
	if gate != p.gated {
		p.gated = gate
		p.h.GateOpportunistic(gate)
	}
	p.h.DefaultPoll()
	p.rates.Roll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DefaultDispatch()
	p.sinceWarm++
	k := int(p.perf*float64(p.topK) + 0.5)
	if k > 0 && p.sinceWarm >= p.intervalTicks {
		p.sinceWarm = 0
		p.topScratch = p.rates.TopK(k, p.topScratch)
		if len(p.topScratch) > 0 {
			p.h.PrewarmFunctions(p.topScratch)
		}
	}
}
