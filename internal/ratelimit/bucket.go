package ratelimit

import (
	"xfaas/internal/sim"
)

// TokenBucket is a classic token bucket on the virtual timeline, used by
// submitters for per-client admission (paper §4.2) ahead of the central
// limiter.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	level  float64
	lastAt sim.Time
}

// NewTokenBucket returns a full bucket with the given sustained rate and
// burst size.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 || burst <= 0 {
		panic("ratelimit: non-positive token bucket parameters")
	}
	return &TokenBucket{rate: rate, burst: burst, level: burst}
}

func (b *TokenBucket) refill(now sim.Time) {
	if now <= b.lastAt {
		return
	}
	b.level += b.rate * (now - b.lastAt).Seconds()
	b.level = min(b.level, b.burst)
	b.lastAt = now
}

// Allow takes n tokens if available, reporting whether it succeeded.
func (b *TokenBucket) Allow(now sim.Time, n float64) bool {
	b.refill(now)
	if b.level < n {
		return false
	}
	b.level -= n
	return true
}

// Rate returns the sustained refill rate.
func (b *TokenBucket) Rate() float64 { return b.rate }

// SetRate changes the sustained rate going forward.
func (b *TokenBucket) SetRate(now sim.Time, rate float64) {
	if rate <= 0 {
		panic("ratelimit: non-positive rate")
	}
	b.refill(now)
	b.rate = rate
}

// SetBurst changes the bucket capacity, clamping the current level.
func (b *TokenBucket) SetBurst(now sim.Time, burst float64) {
	if burst <= 0 {
		panic("ratelimit: non-positive burst")
	}
	b.refill(now)
	b.burst = burst
	b.level = min(b.level, burst)
}
