package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// TimeSeries accumulates values into fixed-width time bins on the virtual
// timeline. It is the backing store for every "per minute" curve in the
// paper's figures (received/executed calls, CPU utilization, RPS, ...).
type TimeSeries struct {
	step  time.Duration
	start time.Duration
	sums  []float64
	cnts  []uint64
	mode  SeriesMode
}

// SeriesMode selects how a bin's recorded values are reduced to one point.
type SeriesMode int

const (
	// ModeSum reports the sum of values per bin (counts, cycles).
	ModeSum SeriesMode = iota
	// ModeMean reports the mean of values per bin (utilization, gauges).
	ModeMean
	// ModeMax reports the maximum value per bin.
	ModeMax
)

// NewTimeSeries returns a series with the given bin width.
func NewTimeSeries(step time.Duration, mode SeriesMode) *TimeSeries {
	if step <= 0 {
		panic("stats: non-positive time series step")
	}
	return &TimeSeries{step: step, mode: mode}
}

func (ts *TimeSeries) binFor(at time.Duration) int {
	if len(ts.sums) == 0 {
		ts.start = at - (at % ts.step)
	}
	if at < ts.start {
		return -1
	}
	return int((at - ts.start) / ts.step)
}

// Record adds a value at virtual time at. Values before the first recorded
// bin are dropped (cannot happen on a monotone timeline).
func (ts *TimeSeries) Record(at time.Duration, v float64) {
	b := ts.binFor(at)
	if b < 0 {
		return
	}
	for b >= len(ts.sums) {
		ts.sums = append(ts.sums, 0)
		ts.cnts = append(ts.cnts, 0)
	}
	switch ts.mode {
	case ModeMax:
		if ts.cnts[b] == 0 || v > ts.sums[b] {
			ts.sums[b] = v
		}
	default:
		ts.sums[b] += v
	}
	ts.cnts[b]++
}

// Len returns the number of bins recorded so far.
func (ts *TimeSeries) Len() int { return len(ts.sums) }

// Value returns the reduced value of bin i.
func (ts *TimeSeries) Value(i int) float64 {
	if i < 0 || i >= len(ts.sums) {
		return 0
	}
	switch ts.mode {
	case ModeMean:
		if ts.cnts[i] == 0 {
			return 0
		}
		return ts.sums[i] / float64(ts.cnts[i])
	default:
		return ts.sums[i]
	}
}

// Values returns all reduced bin values.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.sums))
	for i := range out {
		out[i] = ts.Value(i)
	}
	return out
}

// PeakToTrough returns max/min over the bins. Returns 0 if fewer than 2
// bins. A small floor guards against division by ~0 troughs; for count
// series prefer PeakToTroughFloor with floor 1.
func PeakToTrough(values []float64) float64 {
	return PeakToTroughFloor(values, 1e-9)
}

// PeakToTroughFloor is PeakToTrough with an explicit trough floor, so a
// single empty bin in a counts-per-minute series reads as "trough ≤
// floor" instead of producing a 1e12 ratio.
func PeakToTroughFloor(values []float64, floor float64) float64 {
	if len(values) < 2 {
		return 0
	}
	peak, trough := math.Inf(-1), math.Inf(1)
	for _, v := range values {
		if v > peak {
			peak = v
		}
		if v < trough {
			trough = v
		}
	}
	return peak / max(trough, floor)
}

// MeanOf returns the arithmetic mean of values (0 for empty input).
func MeanOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Correlation returns the Pearson correlation of two equal-length series.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	ma, mb := MeanOf(a), MeanOf(b)
	var num, da, db float64
	for i := 0; i < n; i++ {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

// ASCIIChart renders values as a small unicode sparkline-style chart with
// the given width (series is resampled) and height in rows. It is how the
// CLI shows figure shapes in a terminal.
func ASCIIChart(title string, values []float64, width, height int) string {
	if len(values) == 0 || width <= 0 || height <= 0 {
		return title + ": (no data)\n"
	}
	resampled := Resample(values, width)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range resampled {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [min=%.4g max=%.4g]\n", title, lo, hi)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c, v := range resampled {
		level := int((v - lo) / (hi - lo) * float64(height-1))
		for r := 0; r <= level; r++ {
			grid[height-1-r][c] = '#'
		}
	}
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return b.String()
}

// Resample reduces or stretches values to exactly width points by bin
// averaging (shrink) or nearest-neighbour (grow).
func Resample(values []float64, width int) []float64 {
	out := make([]float64, width)
	n := len(values)
	if n == 0 {
		return out
	}
	for i := 0; i < width; i++ {
		lo := i * n / width
		hi := (i + 1) * n / width
		if hi <= lo {
			hi = lo + 1
		}
		hi = min(hi, n)
		out[i] = MeanOf(values[lo:hi])
	}
	return out
}
