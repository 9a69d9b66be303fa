package stats

import (
	"slices"
	"sort"
	"strings"
	"time"
)

// labelSep joins label values into a child key. 0x1f (unit separator)
// cannot appear in sane label values, so the join is unambiguous.
const labelSep = "\x1f"

// vec is a family of metrics sharing a name and a fixed set of label
// dimensions, like Prometheus's *Vec types. Children are created on
// first use and iterated in sorted label order, so any export built on
// Do is deterministic regardless of insertion order.
type vec[M any] struct {
	labels   []string
	mk       func() *M
	children map[string]*M
	keys     []string
	sorted   bool
}

func newVec[M any](labels []string, mk func() *M) *vec[M] {
	return &vec[M]{labels: labels, mk: mk, children: map[string]*M{}}
}

func (v *vec[M]) with(values []string) *M {
	if len(values) != len(v.labels) {
		panic("stats: label value count mismatch")
	}
	k := strings.Join(values, labelSep)
	m, ok := v.children[k]
	if !ok {
		m = v.mk()
		v.children[k] = m
		v.keys = append(v.keys, k)
		v.sorted = false
	}
	return m
}

// do visits every child in sorted label order.
func (v *vec[M]) do(fn func(values []string, m *M)) {
	if !v.sorted {
		sort.Strings(v.keys)
		v.sorted = true
	}
	for _, k := range v.keys {
		var values []string
		if k != "" || len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		fn(values, v.children[k])
	}
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	name string
	vec  *vec[Counter]
}

// With returns (creating if needed) the child for the given label values.
func (c *CounterVec) With(values ...string) *Counter { return c.vec.with(values) }

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	name string
	vec  *vec[Gauge]
}

// With returns (creating if needed) the child for the given label values.
func (g *GaugeVec) With(values ...string) *Gauge { return g.vec.with(values) }

// SeriesVec is a family of time series keyed by label values. Step and
// mode are fixed per family and apply to every child.
type SeriesVec struct {
	name string
	vec  *vec[TimeSeries]
}

// With returns (creating if needed) the child for the given label values.
func (s *SeriesVec) With(values ...string) *TimeSeries { return s.vec.with(values) }

// CounterVec returns (creating if needed) the named counter family.
// Label names apply only on creation; asking for an existing family with
// different labels panics, because the mismatch corrupts every consumer.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	v, ok := r.cvecs[name]
	if !ok {
		v = &CounterVec{name: name, vec: newVec(labels, func() *Counter { return &Counter{} })}
		r.cvecs[name] = v
	} else if !slices.Equal(v.vec.labels, labels) {
		panic("stats: CounterVec " + name + " redeclared with different labels")
	}
	return v
}

// GaugeVec returns (creating if needed) the named gauge family.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	v, ok := r.gvecs[name]
	if !ok {
		v = &GaugeVec{name: name, vec: newVec(labels, func() *Gauge { return &Gauge{} })}
		r.gvecs[name] = v
	} else if !slices.Equal(v.vec.labels, labels) {
		panic("stats: GaugeVec " + name + " redeclared with different labels")
	}
	return v
}

// SeriesVec returns (creating if needed) the named time-series family;
// step and mode apply only on creation.
func (r *Registry) SeriesVec(name string, step time.Duration, mode SeriesMode, labels ...string) *SeriesVec {
	v, ok := r.svecs[name]
	if !ok {
		v = &SeriesVec{name: name, vec: newVec(labels, func() *TimeSeries { return NewTimeSeries(step, mode) })}
		r.svecs[name] = v
	} else if !slices.Equal(v.vec.labels, labels) {
		panic("stats: SeriesVec " + name + " redeclared with different labels")
	}
	return v
}
