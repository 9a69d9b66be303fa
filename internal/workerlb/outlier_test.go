package workerlb

import (
	"testing"
	"time"

	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

// startSharpDetection turns outlier detection on with score = latest
// inflation (crisp transitions) and the given warm-up.
// ejected reports whether w is currently ejected by the outlier scorer.
func (lb *LB) ejected(w *worker.Worker) bool {
	i, ok := lb.slot(w)
	return ok && lb.outliers != nil && lb.outliers[i].state == outlierEjected
}

func startSharpDetection(lb *LB, e *sim.Engine, probation time.Duration, minSamples int) {
	lb.StartOutlierDetection(e, probation)
	lb.outlierAlpha = 1
	lb.outlierMinSamples = minSamples
}

// TestOutlierEjectAndReinstate walks one worker through the full state
// machine: trusted → probation (no routing change) → ejected (reads Gray)
// → reinstated, with the probe feedback path carrying it back.
func TestOutlierEjectAndReinstate(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 3, 100000)
	lb := New(rng.New(1), workers)
	startSharpDetection(lb, e, 10*time.Second, 3)
	if lb.outliers == nil {
		t.Fatal("detection not reported on")
	}

	// Fleet baseline from the healthy pair, then a 6x-inflated worker 2.
	// (The inflated worker is a third of the sample stream, so it drags
	// the baseline up toward 8/3; 6x keeps its inflation ratio above the
	// eject threshold of 2 even at that polluted baseline.)
	healed := false // worker 2 recovers for good the moment it is ejected
	tk := e.Every(time.Second, func() {
		lb.ObserveExec(workers[0], "f", 1.0)
		lb.ObserveExec(workers[1], "f", 1.0)
		switch {
		case lb.ejected(workers[2]):
			// An ejected worker gets no dispatches; only probes feed it.
			healed = true
			lb.observeProbe(workers[2].ID.Index, 1.0)
		case healed:
			lb.ObserveExec(workers[2], "f", 1.0)
		default:
			lb.ObserveExec(workers[2], "f", 6.0)
		}
	})
	defer tk.Stop()

	// MinSamples=3 inflated completions put worker 2 in probation; the
	// window must elapse before routing changes.
	e.RunFor(5 * time.Second)
	if lb.ejected(workers[2]) {
		t.Fatal("ejected during probation: routing flipped before the window elapsed")
	}
	if lb.outliers[workers[2].ID.Index].state != outlierProbation {
		t.Fatalf("state = %v, want probation", lb.outliers[workers[2].ID.Index].state)
	}

	e.RunFor(10 * time.Second)
	if !lb.ejected(workers[2]) {
		t.Fatal("not ejected after a full probation window of bad scores")
	}
	if got := lb.StateOf(workers[2]); got != Gray {
		t.Fatalf("StateOf(ejected) = %v, want Gray", got)
	}
	if lb.Ejected.Value() != 1 {
		t.Fatalf("Ejected = %v", lb.Ejected.Value())
	}
	// Healthy peers are untouched.
	if lb.ejected(workers[0]) || lb.StateOf(workers[0]) != Healthy {
		t.Fatal("healthy worker mis-scored")
	}

	// Clean probes (inflation 1.0) clear the score; reinstatement still
	// waits out a full window from ejection.
	e.RunFor(25 * time.Second)
	if lb.ejected(workers[2]) {
		t.Fatal("not reinstated after recovery plus a probation window")
	}
	if lb.Reinstated.Value() != 1 {
		t.Fatalf("Reinstated = %v", lb.Reinstated.Value())
	}
	if got := lb.StateOf(workers[2]); got != Healthy {
		t.Fatalf("StateOf(reinstated) = %v, want Healthy", got)
	}
}

// TestOutlierHysteresisFlapping is the regression for the hysteresis
// guarantee: whatever inflation sequence a flapping worker produces, its
// routing state (ejected or not) flips at most once per probation window.
// Table-driven over probe sequences; seq[k] is the inflation sample fed
// at second k, cycling.
func TestOutlierHysteresisFlapping(t *testing.T) {
	const probation = 10 * time.Second
	cases := []struct {
		name     string
		seq      []float64
		secs     int
		minFlips int // at least this many (the detector must not go blind)
	}{
		{"fast-flap-2s-period", []float64{6, 1}, 120, 0},
		{"fast-flap-4s-period", []float64{6, 6, 1, 1}, 120, 0},
		{"slow-flap-15s-half", []float64{6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 120, 1},
		{"persistent-gray", []float64{6}, 120, 1},
		{"healthy", []float64{1}, 120, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			workers := pool(e, 3, 100000)
			lb := New(rng.New(1), workers)
			startSharpDetection(lb, e, probation, 1)

			var flips []sim.Time
			ejected := false
			tick := 0
			tk := e.Every(time.Second, func() {
				lb.ObserveExec(workers[0], "f", 1.0)
				lb.ObserveExec(workers[1], "f", 1.0)
				// The flapping worker's samples arrive via completions
				// while routed-to and via probes once ejected — both are
				// inflation readings, so the sequence drives either path.
				x := tc.seq[tick%len(tc.seq)]
				if lb.ejected(workers[2]) {
					lb.observeProbe(workers[2].ID.Index, x)
				} else {
					lb.ObserveExec(workers[2], "f", x)
				}
				tick++
				if now := lb.ejected(workers[2]); now != ejected {
					ejected = now
					flips = append(flips, e.Now())
				}
			})
			e.RunFor(time.Duration(tc.secs) * time.Second)
			tk.Stop()

			if len(flips) < tc.minFlips {
				t.Fatalf("routing flipped %d times, want at least %d", len(flips), tc.minFlips)
			}
			for i := 1; i < len(flips); i++ {
				if gap := flips[i] - flips[i-1]; gap < sim.Time(probation) {
					t.Fatalf("flips %d and %d only %v apart, want ≥ %v (flips at %v)",
						i-1, i, gap, probation, flips)
				}
			}
		})
	}
}

// TestHeartbeatFlipRateLimited covers the probe-side hysteresis: with
// outlier detection configured, the heartbeat prober may flip a worker
// Healthy↔Gray at most once per probation window even when the worker's
// measured slowdown oscillates across the gray threshold every probe.
func TestHeartbeatFlipRateLimited(t *testing.T) {
	const probation, horizon = 20 * probe, 120 * probe
	run := func(withHysteresis bool) float64 {
		e := sim.NewEngine()
		workers := pool(e, 2, 100000)
		lb := New(rng.New(1), workers)
		lb.StartHealthChecks(e) // gray ≥ 3 slow probes in a row
		if withHysteresis {
			startSharpDetection(lb, e, probation, 3)
		}
		// Slow for 5 probes, fast for 5 probes, forever: fast enough to flap
		// an unguarded prober every cycle.
		phase := 0
		tk := e.Every(5*probe, func() {
			phase++
			if phase%2 == 1 {
				workers[0].SetSlowdown(8)
			} else {
				workers[0].SetSlowdown(1)
			}
		})
		e.RunFor(horizon)
		tk.Stop()
		return lb.DetectedGray.Value() + lb.DetectedRecovered.Value()
	}

	raw := run(false)
	limited := run(true)
	if raw < 8 {
		t.Fatalf("setup: unguarded prober flipped only %.0f times; the flap pattern is too slow", raw)
	}
	// 120 probes / a 20-probe probation allows at most 7 flips (one per
	// window boundary, plus the initial detection).
	if cap := float64(horizon/probation) + 1; limited > cap {
		t.Fatalf("hysteresis allowed %.0f flips in %v, want ≤ %.0f (unguarded: %.0f)", limited, horizon, cap, raw)
	}
	if limited == 0 {
		t.Fatal("hysteresis suppressed detection entirely")
	}
}
