package scheduler

import (
	"sort"
	"testing"
)

// TestHedgeEstimatorQuantile pins the estimator's edge behavior: the
// hedge-delay quantile must be sane on an empty window, a single sample,
// an all-identical window, and after the ring wraps.
func TestHedgeEstimatorQuantile(t *testing.T) {
	cases := []struct {
		name    string
		window  int
		samples []float64
		q       float64
		want    float64
	}{
		{"empty-window", 8, nil, 0.99, 0},
		{"single-sample-p0", 8, []float64{2.5}, 0, 2.5},
		{"single-sample-p50", 8, []float64{2.5}, 0.5, 2.5},
		{"single-sample-p99", 8, []float64{2.5}, 0.99, 2.5},
		{"single-sample-p100", 8, []float64{2.5}, 1, 2.5},
		{"all-identical", 8, []float64{1, 1, 1, 1, 1}, 0.9, 1},
		{"ordered-p50", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5},
		{"ordered-p99", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9},
		{"ordered-p100", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 10},
		{"unsorted-input", 5, []float64{9, 1, 5, 3, 7}, 1, 9},
		// Ring wrap: window 4 retains {100, 2, 3, 4} after five samples.
		{"wraparound-max", 4, []float64{1, 2, 3, 4, 100}, 1, 100},
		{"wraparound-min", 4, []float64{1, 2, 3, 4, 100}, 0, 2},
		// Out-of-range q clamps instead of panicking.
		{"q-below-zero", 4, []float64{1, 2, 3}, -1, 1},
		{"q-above-one", 4, []float64{1, 2, 3}, 2, 3},
		{"zero-window-clamps", 0, []float64{4, 7}, 1, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est := newHedgeEstimator(tc.window)
			for _, s := range tc.samples {
				est.Observe(s)
			}
			if got := est.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			// Quantile must not disturb the window: asking again answers
			// the same.
			if got := est.Quantile(tc.q); got != tc.want {
				t.Fatalf("second Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestHedgeEstimatorObserveInvalidatesOrder: Quantile answers from a
// sorted copy it keeps between samples, so every Observe — while the ring
// fills, when it overwrites the oldest slot, and across a full wrap — must
// be visible to the very next Quantile, against a sort of the window done
// from scratch.
func TestHedgeEstimatorObserveInvalidatesOrder(t *testing.T) {
	const window = 4
	est := newHedgeEstimator(window)
	var seen []float64
	// Descending then ascending values, so each sample lands at a new rank.
	for i, s := range []float64{9, 7, 5, 3, 1, 2, 4, 6, 8, 10, 0, 11} {
		est.Observe(s)
		seen = append(seen, s)
		retained := append([]float64(nil), seen[max(0, len(seen)-window):]...)
		sort.Float64s(retained)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			want := retained[int(q*float64(len(retained)-1))]
			if got := est.Quantile(q); got != want {
				t.Fatalf("after sample %d (%v): Quantile(%v) = %v, want %v of window %v", i+1, s, q, got, want, retained)
			}
		}
	}
}

// TestHedgeEstimatorWarmup verifies warm-up gating counts every sample
// ever observed, not just the retained window — armHedge refuses to hedge
// a function until Samples() reaches MinSamples, and that gate must not
// reset when the ring wraps.
func TestHedgeEstimatorWarmup(t *testing.T) {
	est := newHedgeEstimator(4)
	if est.Samples() != 0 {
		t.Fatalf("fresh estimator has %d samples", est.Samples())
	}
	for i := 1; i <= 6; i++ {
		est.Observe(float64(i))
	}
	if est.Samples() != 6 {
		t.Fatalf("Samples = %d after 6 observations (window 4), want 6", est.Samples())
	}
	// The window holds only the most recent 4: {5, 6, 3, 4}.
	if got := est.Quantile(0); got != 3 {
		t.Fatalf("min of retained window = %v, want 3", got)
	}
}

// TestHedgeBudgetArithmetic pins the earn/spend bookkeeping behind the
// hedge-amplification bound: spent ≤ frac·earned + burst.
func TestHedgeBudgetArithmetic(t *testing.T) {
	// frac 0.25 is exact in binary, so the token boundary is crisp.
	b := NewHedgeBudget(0.25, 2)

	// The burst is immediately spendable.
	for i := 0; i < 2; i++ {
		if !b.Available() {
			t.Fatalf("burst token %d not available", i)
		}
		b.Spend()
	}
	if b.Available() {
		t.Fatal("token available beyond the burst with zero earnings")
	}

	// Four primaries at frac 0.25 earn exactly one more token.
	for i := 0; i < 3; i++ {
		b.Earn()
		if b.Available() {
			t.Fatalf("token available after only %d earns", i+1)
		}
	}
	b.Earn()
	if !b.Available() {
		t.Fatal("token not available after 4 earns at frac 0.25")
	}
	b.Spend()

	if got := b.Earned.Value(); got != 4 {
		t.Fatalf("Earned = %v, want 4", got)
	}
	if got := b.Spent.Value(); got != 3 {
		t.Fatalf("Spent = %v, want 3", got)
	}
	// The invariant probe's inequality holds on the counters.
	if bound := 0.25*b.Earned.Value() + 2; b.Spent.Value() > bound {
		t.Fatalf("spent %v exceeds bound %v", b.Spent.Value(), bound)
	}
}
