package stats

import (
	"fmt"
	"io"
	"strconv"
)

// PromWriter emits Prometheus text exposition format (v0.0.4). It is a
// thin stateful helper: errors stick and later writes become no-ops, so
// callers check Err once at the end. All float formatting goes through
// strconv with 'g'/-1, which is deterministic for a given value.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SanitizeName maps an arbitrary metric name onto the Prometheus name
// charset [a-zA-Z0-9_:], replacing everything else with '_'.
func SanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			out[i] = '_'
		}
	}
	return string(out)
}

// Type emits a "# TYPE" header.
func (p *PromWriter) Type(name, typ string) { p.printf("# TYPE %s %s\n", name, typ) }

// Sample emits one sample line; labels is a pre-rendered `k="v",...`
// string or "".
func (p *PromWriter) Sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, promFloat(v))
}

// histQuantiles are the percentiles exposed per histogram, matching the
// ones the paper reports.
var histQuantiles = []float64{0.5, 0.95, 0.99}

// Histogram emits a histogram as a Prometheus summary: quantile samples
// plus _sum and _count.
func (p *PromWriter) Histogram(name, labels string, h *Histogram) {
	p.Type(name, "summary")
	sep := ""
	if labels != "" {
		sep = ","
	}
	for _, q := range histQuantiles {
		ql := labels + sep + `quantile="` + promFloat(q) + `"`
		p.Sample(name, ql, h.Quantile(q))
	}
	p.Sample(name+"_sum", labels, h.Sum())
	p.Sample(name+"_count", labels, float64(h.Count()))
}

// WritePrometheus renders every metric in the registry, each name
// prefixed, in deterministic order: kind groups as produced by Names(),
// vec children in sorted label order. Time series expose their latest
// bin as a gauge (the full series stays available via the JSON API).
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	p := NewPromWriter(w)
	for _, kn := range r.Names() {
		switch {
		case len(kn) > 10 && kn[:10] == "histogram/":
			p.Histogram(prefix+SanitizeName(kn[10:]), "", r.hists[kn[10:]])
		case len(kn) > 7 && kn[:7] == "series/":
			ts := r.series[kn[7:]]
			if ts.Len() == 0 {
				continue
			}
			name := prefix + SanitizeName(kn[7:])
			p.Type(name, "gauge")
			p.Sample(name, "", ts.Value(ts.Len()-1))
		case len(kn) > 11 && kn[:11] == "countervec/":
			v := r.cvecs[kn[11:]]
			name := prefix + SanitizeName(kn[11:])
			p.Type(name, "counter")
			v.vec.do(func(vals []string, c *Counter) {
				p.Sample(name, labelPairs(v.vec.labels, vals), c.Value())
			})
		case len(kn) > 9 && kn[:9] == "gaugevec/":
			v := r.gvecs[kn[9:]]
			name := prefix + SanitizeName(kn[9:])
			p.Type(name, "gauge")
			v.vec.do(func(vals []string, g *Gauge) {
				p.Sample(name, labelPairs(v.vec.labels, vals), g.v)
			})
		case len(kn) > 10 && kn[:10] == "seriesvec/":
			v := r.svecs[kn[10:]]
			name := prefix + SanitizeName(kn[10:])
			p.Type(name, "gauge")
			v.vec.do(func(vals []string, ts *TimeSeries) {
				if ts.Len() == 0 {
					return
				}
				p.Sample(name, labelPairs(v.vec.labels, vals), ts.Value(ts.Len()-1))
			})
		}
	}
	return p.Err()
}
