package core

import (
	"bytes"
	"math"
	"testing"
	"time"

	"xfaas/internal/trace"
	"xfaas/internal/workload"
)

// fingerprint captures the platform counters a tracing side effect would
// perturb first.
func fingerprint(p *Platform) []float64 {
	out := []float64{p.Acked(), p.SLOMisses(), float64(p.PendingCalls()), p.Completions.Value()}
	for _, reg := range p.Regions() {
		var polled, disp float64
		for _, sc := range reg.Scheds {
			polled += sc.Polled.Value()
			disp += sc.Dispatched.Value()
		}
		out = append(out, polled, disp)
		for _, sh := range reg.Shards {
			out = append(out, sh.Enqueued.Value(), sh.Acked.Value(), sh.Redelivered.Value())
		}
	}
	return out
}

// TestTracingDoesNotPerturbSimulation runs the same seeded workload with
// tracing off, on at full sampling, and on at 1/8 sampling: every
// data-plane counter must be identical — the recorder observes, never
// steers.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	run := func(mutate func(*Config)) []float64 {
		p, _, _ := smallPlatform(t, func(cfg *Config, _ *workload.PopulationConfig) {
			if mutate != nil {
				mutate(cfg)
			}
		})
		p.Engine.RunFor(30 * time.Minute)
		return fingerprint(p)
	}
	base := run(nil)
	traced := run(func(cfg *Config) { cfg.Trace.Enabled = true; cfg.Trace.SampleEvery = 1 })
	sampled := run(func(cfg *Config) { cfg.Trace.Enabled = true; cfg.Trace.SampleEvery = 8 })
	for i := range base {
		if base[i] != traced[i] {
			t.Fatalf("fingerprint[%d]: untraced %v != traced %v", i, base[i], traced[i])
		}
		if base[i] != sampled[i] {
			t.Fatalf("fingerprint[%d]: untraced %v != sampled %v", i, base[i], sampled[i])
		}
	}
}

// TestTraceBreakdownMatchesE2EHistogram checks the tentpole consistency
// claim: at sample rate 1 with a ring large enough to hold every
// completion, the mean of per-trace breakdown sums equals the mean of
// the platform's end-to-end latency histogram (both see exactly the
// acked calls).
func TestTraceBreakdownMatchesE2EHistogram(t *testing.T) {
	p, _, _ := smallPlatform(t, func(cfg *Config, pcfg *workload.PopulationConfig) {
		cfg.Trace.Enabled = true
		cfg.Trace.SampleEvery = 1
		cfg.Trace.RingSize = 1 << 16
		pcfg.TotalRPS = 5
	})
	p.Engine.RunFor(30 * time.Minute)

	var sum float64
	var n int
	for _, tr := range p.Tracer.Recent() {
		if tr.Outcome != trace.KindAck {
			continue
		}
		comp, ok := tr.Breakdown()
		if !ok {
			t.Fatalf("completed trace %d has no breakdown", tr.ID)
		}
		if comp.Sum() != tr.Latency() {
			t.Fatalf("trace %d: breakdown sum %v != latency %v", tr.ID, comp.Sum(), tr.Latency())
		}
		sum += comp.Sum().Seconds()
		n++
	}
	if n < 1000 {
		t.Fatalf("only %d acked traces retained; ring too small for the test", n)
	}
	if uint64(n) != p.E2ELatency.Count() {
		t.Fatalf("trace count %d != histogram count %v", n, p.E2ELatency.Count())
	}
	traceMean := sum / float64(n)
	histMean := p.E2ELatency.Mean()
	if math.Abs(traceMean-histMean) > 1e-9*math.Max(1, histMean) {
		t.Fatalf("trace mean %.12f != histogram mean %.12f", traceMean, histMean)
	}
}

// TestWriteMetricsDeterministic renders the exposition twice at the same
// virtual time and demands byte equality; it also spot-checks family
// presence.
func TestWriteMetricsDeterministic(t *testing.T) {
	p, _, _ := smallPlatform(t, func(cfg *Config, _ *workload.PopulationConfig) {
		cfg.Trace.Enabled = true
	})
	p.Engine.RunFor(10 * time.Minute)
	var a, b bytes.Buffer
	if err := p.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteMetrics output differs between renders")
	}
	for _, want := range []string{
		"# TYPE xfaas_completions_total counter",
		"xfaas_region_utilization{region=\"r0\"}",
		"xfaas_sched_dispatched_total{region=\"r1\"}",
		"xfaas_e2e_latency_seconds{quantile=\"0.95\"}",
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestControlEventsRecordDegradeTransitions drives the degradation
// controller through a shed transition by failing more than half of one
// small fleet (below ShedHealthyFrac) and checks the control log captured
// it.
func TestControlEventsRecordDegradeTransitions(t *testing.T) {
	p, _, _ := smallPlatform(t, func(cfg *Config, _ *workload.PopulationConfig) {
		cfg.Cluster.TotalWorkers = 12
	})
	p.Engine.RunFor(5 * time.Minute)
	for _, reg := range p.Regions() {
		for _, w := range reg.Workers[:len(reg.Workers)/2+1] {
			w.FailSilent()
		}
	}
	p.Engine.RunFor(10 * time.Minute)
	kinds := make(map[string]int)
	for _, e := range p.Tracer.Controls() {
		kinds[e.Kind]++
	}
	if kinds["degrade.shed"] == 0 {
		t.Fatalf("no degrade.shed control event after mass failure; got %v", kinds)
	}
	if kinds["health.dead"] == 0 {
		t.Fatalf("no health.dead control events after mass failure; got %v", kinds)
	}
}
