// Package congestion implements XFaaS's adaptive concurrency control for
// protecting downstream services (paper §4.6.3):
//
//   - a TCP-like AIMD controller per function that multiplicatively
//     decreases the function's RPS limit when back-pressure exceptions from
//     its downstream service exceed a threshold, and additively increases
//     it in clean windows;
//   - a per-function concurrency limit as a safety net for downstream
//     services that do not emit back-pressure;
//   - slow start: when a function's traffic is above T calls per window W,
//     it may grow by at most a factor α per window.
package congestion

import (
	"time"

	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// AIMDParams are the tunables of §4.6.3. The paper reports the
// back-pressure threshold for its two largest downstreams at 5,000
// exceptions/minute; M and I are "tunable parameters".
type AIMDParams struct {
	// BackpressureThreshold is the exceptions-per-window level above which
	// the limit is cut.
	BackpressureThreshold float64
	// DecreaseFactor is M in r ← r·M (0 < M < 1).
	DecreaseFactor float64
	// Increase is I in r ← r + I per clean window.
	Increase float64
}

const (
	// aimdWindow is the AIMD adjustment period.
	aimdWindow time.Duration = time.Minute
	// AIMDFloor bounds the limit from below; a floor above zero keeps
	// probing traffic alive so recovery can be detected.
	AIMDFloor float64 = 1
)

// DefaultAIMDParams mirror the paper's published numbers where given.
func DefaultAIMDParams() AIMDParams {
	return AIMDParams{
		BackpressureThreshold: 5000,
		DecreaseFactor:        0.5,
		Increase:              50,
	}
}

// AIMD is the adaptive RPS limit for one function.
type AIMD struct {
	params     AIMDParams
	limit      float64
	exceptions *stats.WindowRate
	// Decreases counts the limit's cuts for observability.
	Decreases uint64
}

// NewAIMD returns a controller starting at the given initial limit.
func NewAIMD(params AIMDParams, initial float64) *AIMD {
	if params.DecreaseFactor <= 0 || params.DecreaseFactor >= 1 {
		panic("congestion: invalid AIMD params")
	}
	initial = max(initial, AIMDFloor)
	return &AIMD{
		params:     params,
		limit:      initial,
		exceptions: stats.NewWindowRate(time.Second, int(aimdWindow/time.Second)),
	}
}

// OnBackpressure records one back-pressure exception observed at now.
func (a *AIMD) OnBackpressure(now sim.Time) {
	a.exceptions.Add(now, 1)
}

// Tick applies one window's adjustment at virtual time now and returns
// the new limit. Call once per aimdWindow.
func (a *AIMD) Tick(now sim.Time) float64 {
	if a.exceptions.Total(now) > a.params.BackpressureThreshold {
		a.limit *= a.params.DecreaseFactor
		a.Decreases++
	} else {
		a.limit += a.params.Increase
	}
	a.limit = max(a.limit, AIMDFloor)
	return a.limit
}

// Limit returns the current RPS limit.
func (a *AIMD) Limit() float64 { return a.limit }

// The empirically chosen slow-start values from §4.6.3: W = 1 minute,
// T = 100 calls, α = 20%.
const (
	slowStartWindow time.Duration = time.Minute
	// SlowStartThreshold is T: the per-window dispatch count every
	// function may reach regardless of its previous window.
	SlowStartThreshold float64 = 100
	slowStartAlpha     float64 = 0.20
)

// SlowStartParams is empty: slow start has no tunables. The type and its
// constructor remain because benchmark/ passes them to NewManager.
type SlowStartParams struct{}

// DefaultSlowStartParams returns the (empty) slow-start parameters.
func DefaultSlowStartParams() SlowStartParams { return SlowStartParams{} }

// SlowStart caps the growth of a function's per-window dispatch count.
type SlowStart struct {
	windowIdx int64
	prev, cur float64
}

// NewSlowStart returns a slow-start gate.
func NewSlowStart() *SlowStart { return &SlowStart{windowIdx: -1} }

func (s *SlowStart) roll(now sim.Time) {
	idx := int64(now / slowStartWindow)
	switch {
	case s.windowIdx < 0:
		s.windowIdx = idx
	case idx == s.windowIdx:
	case idx == s.windowIdx+1:
		s.prev, s.cur = s.cur, 0
		s.windowIdx = idx
	default: // gap: traffic stopped, restart from scratch
		s.prev, s.cur = 0, 0
		s.windowIdx = idx
	}
}

// Cap returns the maximum number of calls that may be dispatched in the
// window containing now.
func (s *SlowStart) Cap(now sim.Time) float64 {
	s.roll(now)
	grown := s.prev * (1 + slowStartAlpha)
	if grown < SlowStartThreshold {
		return SlowStartThreshold
	}
	return grown
}

// Allow reports whether one more dispatch fits under the cap at now, and
// accounts for it if so.
func (s *SlowStart) Allow(now sim.Time) bool {
	if s.cur+1 > s.Cap(now) {
		return false
	}
	s.cur++
	return true
}

// InWindow returns the dispatch count of the current window.
func (s *SlowStart) InWindow(now sim.Time) float64 {
	s.roll(now)
	return s.cur
}

// Concurrency tracks running instances of a function against its
// concurrency limit (0 = unlimited).
type Concurrency struct {
	limit   int
	running int
	// Rejected counts acquisition failures.
	Rejected uint64
}

// NewConcurrency returns a limiter with the given cap.
func NewConcurrency(limit int) *Concurrency {
	if limit < 0 {
		panic("congestion: negative concurrency limit")
	}
	return &Concurrency{limit: limit}
}

// Acquire reserves a slot, reporting success.
func (c *Concurrency) Acquire() bool {
	if c.limit > 0 && c.running >= c.limit {
		c.Rejected++
		return false
	}
	c.running++
	return true
}

// Release frees a slot. Releasing below zero panics — it indicates a
// bookkeeping bug.
func (c *Concurrency) Release() {
	if c.running <= 0 {
		panic("congestion: Release without Acquire")
	}
	c.running--
}

// Running returns the current instance count.
func (c *Concurrency) Running() int { return c.running }

// Limit returns the configured cap (0 = unlimited).
func (c *Concurrency) Limit() int { return c.limit }
