package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/rng"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 62 {
		t.Fatalf("p50 = %v, want ≈50 within bucket error", p50)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	src := rng.New(1)
	var sample []float64
	for i := 0; i < 50000; i++ {
		v := src.LogNormal(3, 1.5)
		h.Observe(v)
		sample = append(sample, v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := ExactQuantile(sample, q)
		if math.Abs(got-want)/want > 0.12 {
			t.Fatalf("q=%v: got %v want %v (>12%% off)", q, got, want)
		}
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		h := NewHistogram()
		src := rng.New(seed)
		for i := 0; i < int(n%500)+2; i++ {
			h.Observe(src.LogNormal(0, 2))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(10)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0.01) != -5 {
		t.Fatalf("low quantile should be exact min, got %v", h.Quantile(0.01))
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i + 1))
	}
	f := h.FractionBelow(500)
	if math.Abs(f-0.5) > 0.06 {
		t.Fatalf("FractionBelow(500) = %v", f)
	}
	if h.FractionBelow(1e12) != 1 {
		t.Fatal("FractionBelow above max should be 1")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i * 1000))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 100000 {
		t.Fatalf("merged max = %v", a.Max())
	}
	p75 := a.Quantile(0.75)
	if p75 < 1000 {
		t.Fatalf("merged p75 = %v, want in upper half", p75)
	}
}

func TestTimeSeriesSumAndMean(t *testing.T) {
	sum := NewTimeSeries(time.Minute, ModeSum)
	mean := NewTimeSeries(time.Minute, ModeMean)
	for i := 0; i < 120; i++ {
		at := time.Duration(i) * time.Second
		sum.Record(at, 1)
		mean.Record(at, float64(i))
	}
	if sum.Len() != 2 {
		t.Fatalf("bins = %d", sum.Len())
	}
	if sum.Value(0) != 60 || sum.Value(1) != 60 {
		t.Fatalf("sum bins = %v, %v", sum.Value(0), sum.Value(1))
	}
	if m := mean.Value(0); math.Abs(m-29.5) > 1e-9 {
		t.Fatalf("mean bin 0 = %v", m)
	}
}

func TestTimeSeriesMax(t *testing.T) {
	ts := NewTimeSeries(time.Minute, ModeMax)
	ts.Record(0, 5)
	ts.Record(time.Second, 2)
	ts.Record(2*time.Second, 9)
	if ts.Value(0) != 9 {
		t.Fatalf("max bin = %v", ts.Value(0))
	}
}

func TestPeakToTrough(t *testing.T) {
	if r := PeakToTrough([]float64{10, 20, 43, 10}); math.Abs(r-4.3) > 1e-9 {
		t.Fatalf("ratio = %v", r)
	}
	if PeakToTrough([]float64{1}) != 0 {
		t.Fatal("single bin should yield 0")
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if c := Correlation(a, b); math.Abs(c-1) > 1e-9 {
		t.Fatalf("corr = %v", c)
	}
	inv := []float64{10, 8, 6, 4, 2}
	if c := Correlation(a, inv); math.Abs(c+1) > 1e-9 {
		t.Fatalf("anti corr = %v", c)
	}
}

func TestResample(t *testing.T) {
	vals := []float64{1, 1, 2, 2}
	out := Resample(vals, 2)
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("resample = %v", out)
	}
	grown := Resample([]float64{3}, 4)
	for _, v := range grown {
		if v != 3 {
			t.Fatalf("grown = %v", grown)
		}
	}
}

func TestASCIIChartSmoke(t *testing.T) {
	s := ASCIIChart("demo", []float64{1, 5, 2, 8}, 20, 4)
	if len(s) == 0 {
		t.Fatal("empty chart")
	}
	if ASCIIChart("none", nil, 10, 3) == "" {
		t.Fatal("empty-data chart should still render a line")
	}
}

func TestWindowRate(t *testing.T) {
	w := NewWindowRate(time.Second, 60)
	for i := 0; i < 60; i++ {
		w.Add(time.Duration(i)*time.Second, 2)
	}
	now := 59 * time.Second
	if tot := w.Total(now); tot != 120 {
		t.Fatalf("total = %v", tot)
	}
	if ps := w.PerSecond(now); math.Abs(ps-2) > 1e-9 {
		t.Fatalf("per-second = %v", ps)
	}
	// Advance far: old events expire.
	later := 10 * time.Minute
	if tot := w.Total(later); tot != 0 {
		t.Fatalf("after expiry total = %v", tot)
	}
}

func TestWindowRateSlideKeepsRecent(t *testing.T) {
	w := NewWindowRate(time.Second, 10)
	w.Add(0, 1)
	w.Add(5*time.Second, 1)
	w.Add(12*time.Second, 1)
	// Window now covers [3s,12s]: the event at 0 expired, 5s and 12s remain.
	if tot := w.Total(12 * time.Second); tot != 2 {
		t.Fatalf("total = %v, want 2", tot)
	}
}

// slideOneSlot is WindowRate.advance as it was before it shifted in one
// copy: one slot per pass, and a jump after a long silence.
func slideOneSlot(w *WindowRate, now time.Duration) {
	idx := int64(now / w.slot)
	if idx < w.base {
		return
	}
	for w.base+int64(w.nslots)-1 < idx {
		copy(w.counts, w.counts[1:])
		w.counts[w.nslots-1] = 0
		w.base++
		if idx-w.base > int64(w.nslots)*2 {
			clear(w.counts)
			w.base = idx - int64(w.nslots) + 1
		}
	}
}

// TestWindowRateShiftMatchesOneSlotSlide: for jumps of 0, 1, n−1, n, 2n,
// 2n+1 and 3n slots past the window's end, and for an instant before its
// start, Add and Total leave the same counts and base as the one-slot
// slide, float for float.
func TestWindowRateShiftMatchesOneSlotSlide(t *testing.T) {
	const n = 10
	for _, jump := range []int64{0, 1, n - 1, n, 2 * n, 2*n + 1, 3 * n, -2 * n} {
		w, ref := NewWindowRate(time.Second, n), NewWindowRate(time.Second, n)
		for i := int64(0); i < 3*n/2; i++ {
			at := time.Duration(i) * time.Second
			w.Add(at, 0.1*float64(i+1))
			slideOneSlot(ref, at)
			ref.counts[int64(at/time.Second)-ref.base] += 0.1 * float64(i+1)
		}
		at := time.Duration(ref.base+n-1+jump) * time.Second
		w.Add(at, 7)
		slideOneSlot(ref, at)
		ref.counts[max(int64(at/time.Second)-ref.base, 0)] += 7
		want := 0.0
		for _, c := range ref.counts {
			want += c
		}
		if got := w.Total(at); got != want || w.base != ref.base || !slices.Equal(w.counts, ref.counts) {
			t.Fatalf("jump %d: total %v base %d counts %v, one-slot slide %v base %d counts %v",
				jump, got, w.base, w.counts, want, ref.base, ref.counts)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %v", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Counter.Add should panic")
		}
	}()
	c.Add(-1)
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Observe(1)
	if r.Histogram("lat").Count() != 1 {
		t.Fatal("histogram not shared by name")
	}
	r.Series("rps", time.Minute, ModeSum).Record(0, 1)
	names := r.Names()
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if ExactQuantile(s, 0) != 1 || ExactQuantile(s, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if ExactQuantile(s, 0.5) != 3 {
		t.Fatalf("median = %v", ExactQuantile(s, 0.5))
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty sample should yield 0")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%10000) + 1)
	}
}

func BenchmarkWindowRateAdd(b *testing.B) {
	w := NewWindowRate(time.Second, 60)
	for i := 0; i < b.N; i++ {
		w.Add(time.Duration(i)*time.Millisecond, 1)
	}
}
