// Package stats implements the measurement substrate used across the
// repository: log-bucketed histograms with quantile queries, fixed-step
// time series, sliding-window rates, and a named metric registry. It is
// what the experiment harness uses to "measure" the simulated cluster the
// way Meta's production telemetry measured XFaaS.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed histogram of positive float64 observations.
// Buckets grow geometrically, giving a bounded relative error on quantiles
// (≈ growth-1). Zero and negative observations land in a dedicated
// underflow bucket. The zero value is not usable; call NewHistogram.
type Histogram struct {
	growth    float64 // bucket boundary ratio, e.g. 1.1
	logGrowth float64
	min       float64 // lower bound of bucket 0
	underflow uint64
	counts    []uint64
	total     uint64
	sum       float64
	max       float64
	minSeen   float64
}

// NewHistogram returns a histogram with ~5% relative quantile error and a
// dynamic range suitable for everything we measure (1e-9 .. 1e18).
func NewHistogram() *Histogram {
	return NewHistogramWith(1.1, 1e-9)
}

// NewHistogramWith returns a histogram with the given bucket growth factor
// (>1) and lowest representable value (>0).
func NewHistogramWith(growth, min float64) *Histogram {
	if growth <= 1 || min <= 0 {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{growth: growth, logGrowth: math.Log(growth), min: min, minSeen: math.Inf(1)}
}

func (h *Histogram) bucketOf(v float64) int {
	return int(math.Log(v/h.min) / h.logGrowth)
}

// lower bound of bucket i.
func (h *Histogram) bucketLo(i int) float64 {
	return h.min * math.Exp(float64(i)*h.logGrowth)
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.total++
	h.sum += v
	// The first observation seeds max unconditionally: max's zero value
	// would otherwise shadow a stream of non-positive observations and
	// report Max() == 0 for values that were never observed.
	if h.total == 1 || v > h.max {
		h.max = v
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v < h.min {
		h.underflow++
		return
	}
	b := h.bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observation, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest observation seen (exact), or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest observation seen (exact), or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.minSeen
}

// Quantile returns an estimate of the q-quantile (q in [0,1]). For an
// empty histogram it returns 0. The estimate's relative error is bounded
// by the bucket growth factor; the exact min and max are used at the
// extremes.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	if rank < h.underflow {
		return h.minSeen
	}
	seen := h.underflow
	for i, c := range h.counts {
		if seen+c > rank {
			// Geometric midpoint of the bucket, clamped to observed range.
			est := h.bucketLo(i) * math.Sqrt(h.growth)
			if est > h.max {
				est = h.max
			}
			if est < h.minSeen {
				est = h.minSeen
			}
			return est
		}
		seen += c
	}
	return h.max
}

// FractionBelow returns the fraction of observations strictly below v,
// within the histogram's relative bucket error; the extremes are exact
// (v above the max returns 1, v at or below the min returns 0).
func (h *Histogram) FractionBelow(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	if v > h.max {
		return 1
	}
	if v <= h.minSeen {
		return 0
	}
	if v <= h.min {
		return float64(h.underflow) / float64(h.total)
	}
	b := h.bucketOf(v)
	n := h.underflow
	for i := 0; i < b && i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return float64(n) / float64(h.total)
}

// Merge adds all of o's observations into h. Both histograms must share
// parameters.
func (h *Histogram) Merge(o *Histogram) {
	if h.growth != o.growth || h.min != o.min {
		panic("stats: merging incompatible histograms")
	}
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	hWasEmpty := h.total == 0
	h.underflow += o.underflow
	h.total += o.total
	h.sum += o.sum
	// Same zero-value hazard as Observe: an empty side's max must not cap
	// the other side's (possibly non-positive) true maximum.
	if o.total > 0 && (hWasEmpty || o.max > h.max) {
		h.max = o.max
	}
	if o.minSeen < h.minSeen {
		h.minSeen = o.minSeen
	}
}

// Summary describes a distribution at the percentiles the paper reports.
type Summary struct {
	Count              uint64
	Mean               float64
	P10, P50, P90, P99 float64
	Max                float64
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P10:   h.Quantile(0.10),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g p10=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g",
		s.Count, s.Mean, s.P10, s.P50, s.P90, s.P99, s.Max)
}

// ExactQuantile returns the q-quantile of a sample slice (sorted copy;
// convenience for tests and small samples).
func ExactQuantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
