package experiment

import (
	"fmt"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/worker"
)

// jitRamp restarts a single worker's runtime at t=0 (seeded or not) under
// saturating offered load and returns the completions-per-30s ramp.
func jitRamp(seed uint64, seeded bool, window time.Duration) []float64 {
	engine := sim.NewEngine()
	src := rng.New(seed)
	params := worker.DefaultParams()
	params.CPUMIPS = 20_000
	params.CoreMIPS = 2_000
	params.MaxConcurrency = 256
	w := worker.New(worker.ID{}, engine, params, src.Split(), nil)

	const nFuncs = 50
	specs := make([]*function.Spec, nFuncs)
	hot := make([]string, nFuncs)
	for i := range specs {
		name := fmt.Sprintf("hot-%02d", i)
		specs[i] = &function.Spec{
			Name:      name,
			Namespace: "main",
			Deadline:  time.Hour,
			Retry:     function.DefaultRetry,
			Resources: function.ResourceModel{CodeMB: 8, JITCodeMB: 4},
		}
		hot[i] = name
	}
	// Restart the runtime on new code at t=0.
	w.SwitchVersion(seeded, hot)

	completions := stats.NewTimeSeries(30*time.Second, stats.ModeSum)
	var id uint64
	draw := src.Split()
	// Saturating open-loop load: every 50ms offer a call of a random hot
	// function; the worker's acceptance is CPU-bound, so the completion
	// rate tracks how much of the code is JIT-optimized.
	engine.Every(50*time.Millisecond, func() {
		for i := 0; i < 4; i++ {
			id++
			spec := specs[draw.Intn(nFuncs)]
			c := &function.Call{
				ID:       id,
				Spec:     spec,
				CPUWorkM: 200,
				MemMB:    16,
				ExecSecs: 0.1, // CPU-bound at CoreMIPS
			}
			w.TryExecute(c, func(*function.Call, error) {
				completions.Record(engine.Now(), 1)
			})
		}
	})
	engine.RunFor(window)
	return completions.Values()
}

// timeToFraction returns when the ramp first sustains frac of its final
// plateau (average of the last quarter).
func timeToFraction(vals []float64, step time.Duration, frac float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	tail := vals[len(vals)*3/4:]
	plateau := stats.MeanOf(tail)
	target := plateau * frac
	for i, v := range vals {
		if v >= target {
			return time.Duration(i) * step
		}
	}
	return time.Duration(len(vals)) * step
}

func runFig12(s Scale, r *Result) {
	window := 35 * time.Minute
	seeded := jitRamp(s.Seed, true, window)
	selfp := jitRamp(s.Seed, false, window)
	r.series("RPS ramp, seeded JIT profile (per 30s)", 30*time.Second, seeded)
	r.series("RPS ramp, self-profiling (per 30s)", 30*time.Second, selfp)

	tSeeded := timeToFraction(seeded, 30*time.Second, 0.95)
	tSelf := timeToFraction(selfp, 30*time.Second, 0.95)
	r.row("time to max RPS (seeded)", "≈3 min", "%v", tSeeded)
	r.row("time to max RPS (self-profiling)", "≈21 min", "%v", tSelf)
	ratio := float64(tSelf) / float64(max(tSeeded, 30*time.Second))
	r.row("self/seeded ramp ratio", "≈7x", "%.1fx", ratio)
	r.check("seeded ramp completes within ≈4 minutes", tSeeded <= 4*time.Minute, "%v", tSeeded)
	r.check("self-profiling takes ≈20 minutes", tSelf >= 14*time.Minute && tSelf <= 28*time.Minute, "%v", tSelf)
	r.check("cooperative JIT is several times faster", ratio >= 4, "%.1fx", ratio)
}
