package stats

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounterVecSortedIteration(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("calls_total", "region", "quota")
	v.With("r1", "reserved").Add(3)
	v.With("r0", "reserved").Inc()
	v.With("r0", "opportunistic").Add(2)
	v.With("r1", "reserved").Inc() // same child again
	if n := len(v.vec.children); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	var got []string
	v.vec.do(func(vals []string, c *Counter) {
		got = append(got, strings.Join(vals, "/")+"="+promFloat(c.Value()))
	})
	want := []string{"r0/opportunistic=2", "r0/reserved=1", "r1/reserved=4"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("iteration = %v, want %v", got, want)
	}
}

func TestVecSameChildIsSameMetric(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("depth", "shard")
	a := v.With("s0")
	b := v.With("s0")
	if a != b {
		t.Fatalf("With returned distinct children for same labels")
	}
	sv := r.SeriesVec("util", time.Minute, ModeMean, "region")
	ts := sv.With("r0")
	ts.Record(0, 0.5)
	if sv.With("r0").Len() != 1 {
		t.Fatalf("SeriesVec child not shared")
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestVecRedeclareDifferentLabelsPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("x", "a")
	defer func() {
		if recover() == nil {
			t.Fatalf("redeclared family did not panic")
		}
	}()
	r.CounterVec("x", "b")
}

func TestRegistryNamesIncludeVecs(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "l")
	r.GaugeVec("g", "l")
	r.SeriesVec("s", time.Second, ModeSum, "l")
	names := strings.Join(r.Names(), " ")
	for _, want := range []string{"countervec/c", "gaugevec/g", "seriesvec/s"} {
		if !strings.Contains(names, want) {
			t.Fatalf("Names() missing %s: %s", want, names)
		}
	}
}

// TestWritePrometheusGolden pins the exact text exposition output: the
// /metrics endpoint participates in the determinism CI gate, so format
// drift must be a conscious choice.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("pending", "shard").With("s0").Set(7.5)
	h := r.Histogram("e2e_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	v := r.CounterVec("completions_total", "region", "quota")
	v.With("r1", "opportunistic").Add(5)
	v.With("r0", "reserved").Add(10)
	sv := r.SeriesVec("util", time.Minute, ModeMean, "region")
	sv.With("r0").Record(30*time.Second, 0.25)
	sv.With("r0").Record(45*time.Second, 0.75)
	r.Series("drops.per-min", time.Minute, ModeSum).Record(0, 3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf, "xfaas_"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := `# TYPE xfaas_completions_total counter
xfaas_completions_total{region="r0",quota="reserved"} 10
xfaas_completions_total{region="r1",quota="opportunistic"} 5
# TYPE xfaas_pending gauge
xfaas_pending{shard="s0"} 7.5
# TYPE xfaas_e2e_seconds summary
xfaas_e2e_seconds{quantile="0.5"} ` + promFloat(h.Quantile(0.5)) + `
xfaas_e2e_seconds{quantile="0.95"} ` + promFloat(h.Quantile(0.95)) + `
xfaas_e2e_seconds{quantile="0.99"} ` + promFloat(h.Quantile(0.99)) + `
xfaas_e2e_seconds_sum ` + promFloat(h.Sum()) + `
xfaas_e2e_seconds_count 100
# TYPE xfaas_drops_per_min gauge
xfaas_drops_per_min 3
# TYPE xfaas_util gauge
xfaas_util{region="r0"} 0.5
`
	if buf.String() != golden {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
	// Byte-determinism across renders.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2, "xfaas_"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("second render differs")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"acked.total":    "acked_total",
		"per-min/rate":   "per_min_rate",
		"9lives":         "_lives",
		"ok_name:colons": "ok_name:colons",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Fatalf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWindowRateOutOfOrderAddClamps(t *testing.T) {
	w := NewWindowRate(time.Second, 3)
	w.Add(10*time.Second, 1)
	// A straggler observation from a slot the window has already slid
	// past must clamp to the oldest slot, not index before counts[0].
	w.Add(5*time.Second, 2)
	if got := w.Total(10 * time.Second); got != 3 {
		t.Fatalf("total = %g, want 3 (straggler clamped into window)", got)
	}
}

func TestWindowRateLongSilenceJump(t *testing.T) {
	w := NewWindowRate(time.Second, 4)
	w.Add(0, 100)
	// An hour of silence: the window must jump, dropping old counts,
	// without iterating millions of slots.
	w.Add(time.Hour, 1)
	if got := w.Total(time.Hour); got != 1 {
		t.Fatalf("total after silence = %g, want 1", got)
	}
	if got := w.PerSecond(time.Hour); got != 0.25 {
		t.Fatalf("per-second = %g, want 0.25", got)
	}
}

func TestWindowRateEmpty(t *testing.T) {
	w := NewWindowRate(time.Second, 5)
	if w.Total(0) != 0 || w.PerSecond(time.Minute) != 0 {
		t.Fatalf("empty window not zero")
	}
}

func TestTimeSeriesBeforeStartDropped(t *testing.T) {
	ts := NewTimeSeries(time.Minute, ModeSum)
	ts.Record(10*time.Minute, 5)
	ts.Record(2*time.Minute, 99) // before the first bin: dropped
	if ts.Len() != 1 || ts.Value(0) != 5 {
		t.Fatalf("out-of-order record not dropped: len=%d v0=%g", ts.Len(), ts.Value(0))
	}
}

func TestTimeSeriesOutOfRangeValue(t *testing.T) {
	ts := NewTimeSeries(time.Minute, ModeMean)
	if ts.Value(0) != 0 || ts.Value(-1) != 0 || ts.Value(10) != 0 {
		t.Fatalf("out-of-range Value not 0")
	}
	ts.Record(0, 4)
	ts.Record(2*time.Minute, 6) // leaves bin 1 empty
	if ts.Value(1) != 0 {
		t.Fatalf("empty mean bin = %g, want 0", ts.Value(1))
	}
	if ts.Value(2) != 6 {
		t.Fatalf("bin 2 = %g, want 6", ts.Value(2))
	}
}

func TestTimeSeriesModeMaxEmptyBins(t *testing.T) {
	ts := NewTimeSeries(time.Second, ModeMax)
	ts.Record(0, -3)
	ts.Record(0, -7) // max of negatives must keep -3
	if ts.Value(0) != -3 {
		t.Fatalf("max bin = %g, want -3", ts.Value(0))
	}
}
