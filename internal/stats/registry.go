package stats

import (
	"fmt"
	"sort"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v float64 }

// Add increases the counter by d (panics on negative d).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("stats: negative Counter.Add")
	}
	c.v += d
}

// Inc increases the counter by 1.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Gauge is an instantaneous value.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// WindowRate measures an event rate over a sliding window of fixed-width
// slots on the virtual timeline — the structure behind every
// "exceptions per minute" and "RPS" decision in the congestion code.
type WindowRate struct {
	slot   time.Duration
	nslots int
	counts []float64
	base   int64 // slot index of counts[0]
}

// NewWindowRate returns a rate tracker covering nslots slots of the given
// width.
func NewWindowRate(slot time.Duration, nslots int) *WindowRate {
	if slot <= 0 || nslots <= 0 {
		panic("stats: invalid WindowRate parameters")
	}
	return &WindowRate{slot: slot, nslots: nslots, counts: make([]float64, nslots)}
}

func (w *WindowRate) advance(now time.Duration) {
	idx := int64(now / w.slot)
	// Slide the window to end at idx, k slots at once; an idx inside or
	// before the window leaves it as it is.
	if k := idx - (w.base + int64(w.nslots) - 1); k > 0 {
		k = min(k, int64(w.nslots))
		copy(w.counts, w.counts[k:])
		clear(w.counts[w.nslots-int(k):])
		w.base = idx - int64(w.nslots) + 1
	}
}

// Add records n events at virtual time now. A now that lags the window
// (out-of-order observation after the window already advanced past it)
// is clamped to the oldest retained slot rather than indexing before
// counts[0].
func (w *WindowRate) Add(now time.Duration, n float64) {
	w.advance(now)
	idx := int64(now/w.slot) - w.base
	idx = max(idx, 0)
	w.counts[idx] += n
}

// Total returns the number of events inside the window ending at now.
func (w *WindowRate) Total(now time.Duration) float64 {
	w.advance(now)
	s := 0.0
	for _, c := range w.counts {
		s += c
	}
	return s
}

// PerSecond returns the windowed average event rate at now.
func (w *WindowRate) PerSecond(now time.Duration) float64 {
	return w.Total(now) / (float64(w.nslots) * w.slot.Seconds())
}

// Registry is a named collection of metrics. Components create their
// metrics through a registry so the experiment harness can enumerate and
// snapshot them.
type Registry struct {
	hists  map[string]*Histogram
	series map[string]*TimeSeries
	cvecs  map[string]*CounterVec
	gvecs  map[string]*GaugeVec
	svecs  map[string]*SeriesVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  map[string]*Histogram{},
		series: map[string]*TimeSeries{},
		cvecs:  map[string]*CounterVec{},
		gvecs:  map[string]*GaugeVec{},
		svecs:  map[string]*SeriesVec{},
	}
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Series returns (creating if needed) the named time series; step and mode
// apply only on creation.
func (r *Registry) Series(name string, step time.Duration, mode SeriesMode) *TimeSeries {
	ts, ok := r.series[name]
	if !ok {
		ts = NewTimeSeries(step, mode)
		r.series[name] = ts
	}
	return ts
}

// Names returns all metric names, sorted, prefixed with their kind.
func (r *Registry) Names() []string {
	var names []string
	for n := range r.hists {
		names = append(names, "histogram/"+n)
	}
	for n := range r.series {
		names = append(names, "series/"+n)
	}
	for n := range r.cvecs {
		names = append(names, "countervec/"+n)
	}
	for n := range r.gvecs {
		names = append(names, "gaugevec/"+n)
	}
	for n := range r.svecs {
		names = append(names, "seriesvec/"+n)
	}
	sort.Strings(names)
	return names
}

// labelPairs renders name="value" pairs for exposition output.
func labelPairs(names, values []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		out += fmt.Sprintf("%s=%q", n, v)
	}
	return out
}
