// Package ratelimit implements the Central Rate Limiter (paper Figure 6,
// §4.6.1): every function has a global CPU quota (million instructions per
// second); the limiter converts it to a requests-per-second limit by
// dividing the quota by the function's average cost per invocation, and
// throttles invocations that would exceed the global RPS. For
// opportunistic-quota functions the limit is scaled by the Utilization
// Controller's factor S (§4.6.2).
package ratelimit

import (
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// Central is the global rate limiter. It is logically centralized (as in
// the paper); schedulers and submitters consult it on every admission
// decision.
type Central struct {
	engine *sim.Engine
	// Scale is the opportunistic scaling factor S set by the Utilization
	// Controller; 1 means quota-as-configured, 0 stops opportunistic work.
	scale float64
	// shed is the degradation controller's load-shedding factor in [0, 1]
	// applied on top of scale: when detected capacity is lost, shedding
	// opportunistic work protects critical traffic (paper §4.1 + §4.4's
	// criticality ordering under a capacity crunch).
	shed float64
	// minCrit is the lowest criticality still admitted; calls below it
	// wait durably in their DurableQ until the degradation clears.
	minCrit function.Criticality

	funcs map[string]*funcState
	// Window over which global RPS is measured.
	window time.Duration

	Throttled stats.Counter
}

type funcState struct {
	// avgCost is an EWMA of observed millions of instructions per call,
	// seeded from the declared resource model so new functions have a
	// sane limit before their first completion report.
	avgCost float64
	rate    *stats.WindowRate
	// bucket enforces the RPS limit. A token bucket handles fractional
	// limits exactly: a 0.05-RPS function accrues a token every 20
	// seconds instead of being rounded out of existence by a windowed
	// rate check.
	bucket *TokenBucket
	// peakLimit is the largest limit seen by Allow since the invariant
	// checker last closed a window (limits move with S, shed, and avgCost
	// between probe points, so the ceiling check needs the window's high
	// watermark, not the instantaneous limit). closedPeak is the watermark
	// of the window closed at closedAt.
	peakLimit  float64
	closedPeak float64
	closedAt   sim.Time
}

// NewCentral returns a limiter measuring RPS over a 10-second window.
func NewCentral(engine *sim.Engine) *Central {
	return &Central{
		engine:  engine,
		scale:   1,
		shed:    1,
		minCrit: function.CritLow,
		funcs:   make(map[string]*funcState),
		window:  10 * time.Second,
	}
}

// SetScale stores the opportunistic scaling factor S (clamped to ≥0).
func (c *Central) SetScale(s float64) {
	if s < 0 {
		s = 0
	}
	c.scale = s
}

// Scale returns the effective opportunistic scaling factor: the
// Utilization Controller's S multiplied by the degradation controller's
// shed factor.
func (c *Central) Scale() float64 { return c.scale * c.shed }

// SetShed stores the degradation load-shedding factor (clamped to [0, 1];
// 1 means no shedding).
func (c *Central) SetShed(f float64) {
	if f < 0 {
		f = 0
	}
	c.shed = min(f, 1)
}

// Shed returns the current shedding factor.
func (c *Central) Shed() float64 { return c.shed }

// SetMinCriticality sets the lowest criticality still admitted during
// degradation; CritLow restores normal admission.
func (c *Central) SetMinCriticality(m function.Criticality) { c.minCrit = m }

// MinCriticality returns the degradation admission floor.
func (c *Central) MinCriticality() function.Criticality { return c.minCrit }

func (c *Central) state(spec *function.Spec) *funcState {
	fs, ok := c.funcs[spec.Name]
	if !ok {
		seed := expectedCost(spec)
		fs = &funcState{
			avgCost: seed,
			rate:    stats.NewWindowRate(time.Second, int(c.window/time.Second)),
		}
		c.funcs[spec.Name] = fs
	}
	return fs
}

// expectedCost is the mean of the spec's lognormal CPU model, or a 1-MIPS
// floor when no model is declared.
func expectedCost(spec *function.Spec) float64 {
	m := spec.Resources
	if m.CPUMu == 0 && m.CPUSigma == 0 {
		return 1
	}
	return max(function.LogNormalMean(m.CPUMu, m.CPUSigma), 1e-6)
}

// RPSLimit returns the function's current global RPS limit: quota divided
// by average cost, scaled by S for opportunistic functions. A zero quota
// means "unlimited" and reports a negative limit.
func (c *Central) RPSLimit(spec *function.Spec) float64 {
	if spec.QuotaMIPS <= 0 {
		return -1
	}
	return c.limit(spec, c.state(spec))
}

// limit is RPSLimit on the function's state fs.
func (c *Central) limit(spec *function.Spec, fs *funcState) float64 {
	if spec.QuotaMIPS <= 0 {
		return -1
	}
	r := spec.QuotaMIPS / fs.avgCost
	if spec.Quota == function.QuotaOpportunistic {
		r *= c.Scale()
	}
	return r
}

// Allow consults the limiter for one invocation of spec at virtual time
// now, accounting for it if admitted.
func (c *Central) Allow(spec *function.Spec) bool {
	now := c.engine.Now()
	fs := c.state(spec)
	limit := c.limit(spec, fs)
	if limit > fs.peakLimit {
		fs.peakLimit = limit
	}
	if limit >= 0 {
		if limit <= 0 {
			c.Throttled.Inc()
			return false
		}
		if fs.bucket == nil {
			fs.bucket = NewTokenBucket(limit, burstFor(limit))
		} else if fs.bucket.Rate() != limit {
			fs.bucket.SetRate(now, limit)
			fs.bucket.SetBurst(now, burstFor(limit))
		}
		if !fs.bucket.Allow(now, 1) {
			c.Throttled.Inc()
			return false
		}
	}
	fs.rate.Add(now, 1)
	return true
}

// burstFor sizes a limit's burst allowance: about two seconds of rate,
// with a floor of one call so fractional limits still make progress.
func burstFor(limit float64) float64 {
	return max(2*limit, 1)
}

// CurrentRPS returns the measured global RPS for the function.
func (c *Central) CurrentRPS(spec *function.Spec) float64 {
	return c.state(spec).rate.PerSecond(c.engine.Now())
}

// TakePeakAllowedRPS returns the largest RPS the limiter could have
// legitimately admitted over the measurement window since the last call
// — the high-watermark limit plus the burst allowance amortized over the
// window — and starts a new watermark. Negative means unlimited (no
// quota). The invariant checker's quota-ceiling probe compares
// CurrentRPS against this bound. Reading twice at one instant (a final
// evaluation on a probe tick) reads the same window twice: the second
// read must not judge the traffic of the window just closed against the
// watermark of the one just begun.
func (c *Central) TakePeakAllowedRPS(spec *function.Spec) float64 {
	fs := c.state(spec)
	if now := c.engine.Now(); now != fs.closedAt {
		fs.closedPeak, fs.peakLimit, fs.closedAt = fs.peakLimit, c.limit(spec, fs), now
	} else if fs.peakLimit > fs.closedPeak {
		fs.closedPeak = fs.peakLimit // admitted at this instant, after the first read
	}
	peak := fs.closedPeak
	if peak < 0 || (peak == 0 && fs.peakLimit < 0) {
		return -1
	}
	return peak + burstFor(peak)/c.window.Seconds()
}

// RecordCost feeds an observed per-invocation CPU cost (millions of
// instructions) into the EWMA used for quota→RPS conversion. Workers call
// this on completion.
func (c *Central) RecordCost(spec *function.Spec, costM float64) {
	if costM <= 0 {
		return
	}
	fs := c.state(spec)
	const alpha = 0.05
	fs.avgCost = (1-alpha)*fs.avgCost + alpha*costM
}

// AvgCost returns the EWMA cost estimate for the function.
func (c *Central) AvgCost(spec *function.Spec) float64 {
	return c.state(spec).avgCost
}
