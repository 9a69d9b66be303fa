package stats

import (
	"math"
	"testing"
)

// TestHistogramQuantileEdges pins down the quantile edge cases: empty
// histograms, a single observation (one bucket), q clamping at 0 and 1,
// underflow-only streams, and non-positive observations — the case where
// max's zero value used to shadow the true maximum.
func TestHistogramQuantileEdges(t *testing.T) {
	cases := []struct {
		name    string
		observe []float64
		q       float64
		want    float64
		exact   bool // within float round-off, not bucket error
	}{
		{name: "empty q=0", observe: nil, q: 0, want: 0, exact: true},
		{name: "empty q=0.5", observe: nil, q: 0.5, want: 0, exact: true},
		{name: "empty q=1", observe: nil, q: 1, want: 0, exact: true},
		{name: "single q=0 is min", observe: []float64{3}, q: 0, want: 3, exact: true},
		{name: "single q=0.5 in bucket", observe: []float64{3}, q: 0.5, want: 3},
		{name: "single q=1 is max", observe: []float64{3}, q: 1, want: 3, exact: true},
		{name: "q<0 clamps to min", observe: []float64{2, 4, 8}, q: -1, want: 2, exact: true},
		{name: "q>1 clamps to max", observe: []float64{2, 4, 8}, q: 2, want: 8, exact: true},
		{name: "all underflow q=0.5", observe: []float64{1e-12, 1e-13}, q: 0.5, want: 1e-13, exact: true},
		{name: "all zero q=1", observe: []float64{0, 0, 0}, q: 1, want: 0, exact: true},
		{name: "all negative q=1", observe: []float64{-5, -2, -9}, q: 1, want: -2, exact: true},
		{name: "all negative q=0", observe: []float64{-5, -2, -9}, q: 0, want: -9, exact: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if tc.exact {
				if got != tc.want {
					t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
				}
				return
			}
			// Bucket-resolution estimate: within one growth factor.
			if got < tc.want/1.1 || got > tc.want*1.1 {
				t.Fatalf("Quantile(%v) = %v, want ≈%v", tc.q, got, tc.want)
			}
		})
	}
}

// TestHistogramMaxNonPositive checks that Max is exact for streams that
// never exceed zero.
func TestHistogramMaxNonPositive(t *testing.T) {
	h := NewHistogram()
	if h.Max() != 0 {
		t.Fatalf("empty Max = %v", h.Max())
	}
	h.Observe(-7)
	if h.Max() != -7 {
		t.Fatalf("Max after one negative = %v, want -7", h.Max())
	}
	h.Observe(-3)
	h.Observe(-12)
	if h.Max() != -3 || h.Min() != -12 {
		t.Fatalf("max/min = %v/%v, want -3/-12", h.Max(), h.Min())
	}
	if f := h.FractionBelow(0); f != 1 {
		t.Fatalf("FractionBelow(0) = %v, want 1", f)
	}
	s := h.Summarize()
	if s.Max != -3 {
		t.Fatalf("Summary.Max = %v, want -3", s.Max)
	}
}

// TestHistogramMergeEmptyAndNegative checks the merge direction of the
// same zero-value hazard: merging into (or from) an empty histogram must
// not launder a spurious max of 0 into the result.
func TestHistogramMergeEmptyAndNegative(t *testing.T) {
	neg := NewHistogram()
	neg.Observe(-4)
	neg.Observe(-1)

	empty := NewHistogram()
	empty.Merge(neg)
	if empty.Max() != -1 || empty.Min() != -4 || empty.Count() != 2 {
		t.Fatalf("empty←neg: max/min/count = %v/%v/%d", empty.Max(), empty.Min(), empty.Count())
	}

	neg2 := NewHistogram()
	neg2.Observe(-4)
	neg2.Merge(NewHistogram()) // merging an empty histogram is a no-op
	if neg2.Max() != -4 || neg2.Count() != 1 {
		t.Fatalf("neg←empty: max/count = %v/%d", neg2.Max(), neg2.Count())
	}

	// Positive merge still takes the larger side's max.
	a, b := NewHistogram(), NewHistogram()
	a.Observe(2)
	b.Observe(5)
	a.Merge(b)
	if a.Max() != 5 || math.Abs(a.Sum()-7) > 1e-12 {
		t.Fatalf("a←b: max/sum = %v/%v", a.Max(), a.Sum())
	}
}
