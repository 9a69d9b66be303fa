package workload

import (
	"math"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

func TestPopulationTriggerShares(t *testing.T) {
	pop := NewPopulation(DefaultPopulationConfig(), rng.New(1))
	counts := map[function.TriggerType]int{}
	for _, s := range pop.Registry.All() {
		counts[s.Trigger]++
	}
	total := pop.Registry.Len()
	qf := float64(counts[function.TriggerQueue]) / float64(total)
	ef := float64(counts[function.TriggerEvent]) / float64(total)
	tf := float64(counts[function.TriggerTimer]) / float64(total)
	// Table 1: 89% / 8% / 3% (the spiky extras shift things slightly).
	if qf < 0.82 || qf > 0.94 {
		t.Fatalf("queue function share = %v, want ≈0.89", qf)
	}
	if ef < 0.04 || ef > 0.14 {
		t.Fatalf("event function share = %v, want ≈0.08", ef)
	}
	if tf < 0.01 || tf > 0.07 {
		t.Fatalf("timer function share = %v, want ≈0.03", tf)
	}
}

func TestCallAndComputeShares(t *testing.T) {
	pop := NewPopulation(DefaultPopulationConfig(), rng.New(2))
	calls := map[function.TriggerType]float64{}
	compute := map[function.TriggerType]float64{}
	var totalCalls, totalCompute float64
	for _, m := range pop.Models {
		if m.Burst != nil {
			continue // spiky extras not part of the Table 1 accounting
		}
		r := m.Spec.Resources
		meanCPU := math.Exp(r.CPUMu + r.CPUSigma*r.CPUSigma/2)
		calls[m.Spec.Trigger] += m.MeanRPS
		compute[m.Spec.Trigger] += m.MeanRPS * meanCPU
		totalCalls += m.MeanRPS
		totalCompute += m.MeanRPS * meanCPU
	}
	ecs := calls[function.TriggerEvent] / totalCalls
	if ecs < 0.75 || ecs > 0.95 {
		t.Fatalf("event call share = %v, want ≈0.85", ecs)
	}
	qcs := compute[function.TriggerQueue] / totalCompute
	if qcs < 0.6 || qcs > 0.97 {
		t.Fatalf("queue compute share = %v, want ≈0.86", qcs)
	}
	if compute[function.TriggerEvent]/totalCompute > 0.35 {
		t.Fatalf("event compute share too high: %v", compute[function.TriggerEvent]/totalCompute)
	}
}

func TestPerCallDistributionsMatchTable3Shape(t *testing.T) {
	pop := NewPopulation(DefaultPopulationConfig(), rng.New(3))
	now := sim.Time(0)
	hists := map[function.TriggerType]*stats.Histogram{
		function.TriggerQueue: stats.NewHistogram(),
		function.TriggerEvent: stats.NewHistogram(),
		function.TriggerTimer: stats.NewHistogram(),
	}
	times := stats.NewHistogram()
	for _, m := range pop.Models {
		if m.Burst != nil {
			continue
		}
		// Weight draws by function rate to approximate per-call stats.
		n := int(m.MeanRPS*10) + 1
		for i := 0; i < n; i++ {
			c := m.NewCall(now)
			hists[m.Spec.Trigger].Observe(c.CPUWorkM)
			times.Observe(c.ExecSecs)
		}
	}
	// Queue-triggered CPU median should dwarf event-triggered (Table 3:
	// 221.8 vs 11.4 MIPS).
	qp50 := hists[function.TriggerQueue].Quantile(0.5)
	ep50 := hists[function.TriggerEvent].Quantile(0.5)
	if qp50 < 4*ep50 {
		t.Fatalf("queue p50 (%v) not ≫ event p50 (%v)", qp50, ep50)
	}
	// Aggregate execution-time contract (§3.3): ≈33% under 1s, ≈94%
	// under 60s, ≈1% above 5 minutes.
	u1 := times.FractionBelow(1)
	u60 := times.FractionBelow(60)
	over300 := 1 - times.FractionBelow(300)
	if u1 < 0.15 || u1 > 0.55 {
		t.Fatalf("fraction under 1s = %v, want ≈0.33", u1)
	}
	if u60 < 0.85 || u60 > 0.995 {
		t.Fatalf("fraction under 60s = %v, want ≈0.94", u60)
	}
	if over300 > 0.05 {
		t.Fatalf("fraction over 5m = %v, want ≈0.01", over300)
	}
}

func TestDiurnalRateShape(t *testing.T) {
	m := &FuncModel{MeanRPS: 100, DiurnalAmp: 0.33, draw: rng.New(4)}
	peak, trough := 0.0, math.Inf(1)
	for h := 0; h < 24; h++ {
		r := m.RateAt(sim.Time(h) * time.Hour)
		if r > peak {
			peak = r
		}
		if r < trough {
			trough = r
		}
	}
	if ratio := peak / trough; ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("diurnal ratio = %v, want ≈2", ratio)
	}
}

func TestMidnightSpike(t *testing.T) {
	m := &FuncModel{MeanRPS: 100, DiurnalAmp: 0.33, MidnightSpikeMul: 6, draw: rng.New(5)}
	atMidnight := m.RateAt(5 * time.Minute)
	atNoon := m.RateAt(12 * time.Hour)
	if atMidnight < 3*atNoon {
		t.Fatalf("midnight %v not spiking over noon %v", atMidnight, atNoon)
	}
	// Spike applies on both sides of 00:00.
	beforeMidnight := m.RateAt(Day - 10*time.Minute)
	if beforeMidnight < 3*atNoon {
		t.Fatalf("pre-midnight %v not spiking", beforeMidnight)
	}
}

func TestBurstPattern(t *testing.T) {
	m := &FuncModel{
		Burst: &Burst{Every: Day, Len: 15 * time.Minute, RPS: 1000},
		draw:  rng.New(6),
	}
	if m.RateAt(5*time.Minute) != 1000 {
		t.Fatal("burst window silent")
	}
	if m.RateAt(2*time.Hour) != 0 {
		t.Fatal("outside burst not silent")
	}
	if m.RateAt(Day+10*time.Minute) != 1000 {
		t.Fatal("burst did not repeat")
	}
}

func TestFutureStartFraction(t *testing.T) {
	m := &FuncModel{
		Spec: &function.Spec{Resources: function.ResourceModel{
			CPUMu: 1, CPUSigma: 0.1, MemMu: 1, MemSigma: 0.1, TimeMu: 0, TimeSigma: 0.1,
		}},
		FutureStartFrac: 0.5,
		draw:            rng.New(7),
	}
	future := 0
	for i := 0; i < 1000; i++ {
		if m.NewCall(0).StartAfter > 0 {
			future++
		}
	}
	if future < 400 || future > 600 {
		t.Fatalf("future-start calls = %d/1000, want ≈500", future)
	}
}

func TestGeneratorSubmitsAtConfiguredRate(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultPopulationConfig()
	cfg.Functions = 50
	cfg.TotalRPS = 200
	cfg.SpikyFunctions = 0
	pop := NewPopulation(cfg, rng.New(8))
	var received int
	g := NewGenerator(e, pop, []float64{1}, func(region cluster.RegionID, client string, c *function.Call) error {
		received++
		return nil
	}, rng.New(9))
	g.Start()
	e.RunFor(10 * time.Minute)
	got := float64(received) / 600
	// Rate at sim start (midnight) includes the pipeline spike, so the
	// measured rate is well above the daily mean but bounded.
	if got < cfg.TotalRPS*0.5 || got > cfg.TotalRPS*6 {
		t.Fatalf("generated %v RPS with configured mean %v", got, cfg.TotalRPS)
	}
	if g.Generated.Value() != float64(received) {
		t.Fatal("generated counter mismatch")
	}
	g.Stop()
	before := received
	e.RunFor(time.Minute)
	if received != before {
		t.Fatal("generator kept running after Stop")
	}
}

func TestReceivedPeakToTroughLikeFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day generation")
	}
	e := sim.NewEngine()
	cfg := DefaultPopulationConfig()
	cfg.Functions = 120
	cfg.TotalRPS = 300
	cfg.SpikeBurstRPS = 120 // scale the Figure 4 burst with the base rate
	pop := NewPopulation(cfg, rng.New(10))
	g := NewGenerator(e, pop, []float64{1}, func(cluster.RegionID, string, *function.Call) error { return nil }, rng.New(11))
	g.Start()
	e.RunFor(Day)
	vals := g.ReceivedSeries.Values()
	// Smooth over 10-minute windows to measure the macro shape.
	smoothed := stats.Resample(vals, len(vals)/10)
	ratio := stats.PeakToTrough(smoothed)
	if ratio < 2.2 || ratio > 8.5 {
		t.Fatalf("received peak/trough = %v, want ≈4.3 (paper)", ratio)
	}
}

func TestNamedWorkloadsBuild(t *testing.T) {
	pop := &Population{Registry: function.NewRegistry(), TeamOf: map[string]string{}}
	src := rng.New(13)
	for _, w := range NamedWorkloads() {
		BuildNamed(pop, w, src)
	}
	if pop.Registry.Len() != 31 { // 6+8+5+4+8
		t.Fatalf("named functions = %d", pop.Registry.Len())
	}
	// Morphing dwarfs Falco in CPU (orders of magnitude, §3.2).
	var morphMax, falcoMax float64
	for _, s := range pop.Registry.All() {
		cpu := math.Exp(s.Resources.CPUMu)
		switch s.Team {
		case "team-morphing":
			if cpu > morphMax {
				morphMax = cpu
			}
			if !s.Ephemeral {
				t.Fatal("morphing functions must be ephemeral")
			}
		case "team-falco":
			if cpu > falcoMax {
				falcoMax = cpu
			}
		}
	}
	if morphMax < 100*falcoMax {
		t.Fatalf("morphing CPU (%v) not ≫ falco (%v)", morphMax, falcoMax)
	}
}

// TestGrowthSeriesMonthlySamples pins the sampling of the Figure 3 model:
// five years of monthly points starting at year 0, every one positive.
// The curve's shape (≈50x growth, the late jump) is fig3's checks.
func TestGrowthSeriesMonthlySamples(t *testing.T) {
	g := GrowthSeries(rng.New(14))
	if len(g) != 60 {
		t.Fatalf("samples = %d, want 60", len(g))
	}
	for i, p := range g {
		if p.YearsSinceStart != float64(i)/12 || p.DailyCalls <= 0 {
			t.Fatalf("sample %d = %+v, want month %d with positive calls", i, p, i)
		}
	}
}

func TestTotalMeanRPS(t *testing.T) {
	cfg := DefaultPopulationConfig()
	pop := NewPopulation(cfg, rng.New(15))
	got := pop.TotalMeanRPS()
	// Base functions sum to ≈TotalRPS; bursts add a small average.
	if got < cfg.TotalRPS*0.9 || got > cfg.TotalRPS*1.3 {
		t.Fatalf("total mean RPS = %v, configured %v", got, cfg.TotalRPS)
	}
}

func TestNewModelDrawsCalls(t *testing.T) {
	spec := &function.Spec{
		Name: "custom", Namespace: "ns", Deadline: time.Hour,
		Retry: function.DefaultRetry,
		Resources: function.ResourceModel{
			CPUMu: 1, CPUSigma: 0.2, MemMu: 1, MemSigma: 0.2, TimeMu: 0, TimeSigma: 0.2,
		},
	}
	m := NewModel(spec, 5, "client-x", rng.New(20))
	if m.RateAt(0) != 5 {
		t.Fatalf("rate = %v", m.RateAt(0))
	}
	c := m.NewCall(0)
	if c.Spec != spec || c.CPUWorkM <= 0 || c.MemMB <= 0 || c.ExecSecs <= 0 {
		t.Fatalf("bad call draw: %+v", c)
	}
	if m.Client != "client-x" {
		t.Fatalf("client = %q", m.Client)
	}
}

func TestExpectedMIPSMatchesComposition(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.SpikyFunctions = 0
	pop := NewPopulation(cfg, rng.New(21))
	want := 0.0
	for _, m := range pop.Models {
		r := m.Spec.Resources
		want += m.MeanRPS * math.Exp(r.CPUMu+r.CPUSigma*r.CPUSigma/2)
	}
	got := pop.ExpectedMIPS()
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("ExpectedMIPS = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Fatal("non-positive expected demand")
	}
}

func TestExpectedMIPSIncludesBurstAverage(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.SpikyFunctions = 0
	base := NewPopulation(cfg, rng.New(22)).ExpectedMIPS()
	cfg.SpikyFunctions = 2
	withBurst := NewPopulation(cfg, rng.New(22)).ExpectedMIPS()
	if withBurst <= base {
		t.Fatalf("burst functions did not add demand: %v vs %v", withBurst, base)
	}
}

func TestExpectedConcurrentMemScalesWithRate(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.SpikyFunctions = 0
	cfg.TotalRPS = 10
	lo := NewPopulation(cfg, rng.New(23)).ExpectedConcurrentMemMB(150)
	cfg.TotalRPS = 40
	hi := NewPopulation(cfg, rng.New(23)).ExpectedConcurrentMemMB(150)
	if hi <= lo || lo <= 0 {
		t.Fatalf("concurrent memory estimate not rate-monotone: %v vs %v", lo, hi)
	}
	// A zero core rate falls back to pure exec-time duration.
	if NewPopulation(cfg, rng.New(23)).ExpectedConcurrentMemMB(0) <= 0 {
		t.Fatal("zero-core estimate non-positive")
	}
}

func TestPopulationInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid population config should panic")
		}
	}()
	NewPopulation(PopulationConfig{Functions: 0, TotalRPS: 1}, rng.New(1))
}

func TestDownstreamWiring(t *testing.T) {
	cfg := DefaultPopulationConfig()
	cfg.SpikyFunctions = 0
	cfg.DownstreamFrac = 1.0
	cfg.Downstreams = []string{"tao", "kvstore"}
	pop := NewPopulation(cfg, rng.New(24))
	wired := map[string]int{}
	for _, s := range pop.Registry.All() {
		if s.Downstream != "" {
			wired[s.Downstream]++
		}
	}
	if wired["tao"] == 0 || wired["kvstore"] == 0 {
		t.Fatalf("downstream wiring missing: %v", wired)
	}
	// Only queue-triggered functions call downstreams in the model.
	for _, s := range pop.Registry.All() {
		if s.Downstream != "" && s.Trigger != function.TriggerQueue {
			t.Fatalf("%s: non-queue function wired to downstream", s.Name)
		}
	}
}

func TestGeneratorRegionWeights(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultPopulationConfig()
	cfg.Functions = 30
	cfg.TotalRPS = 50
	cfg.SpikyFunctions = 0
	pop := NewPopulation(cfg, rng.New(25))
	got := map[cluster.RegionID]int{}
	g := NewGenerator(e, pop, []float64{0.8, 0.2}, func(r cluster.RegionID, _ string, _ *function.Call) error {
		got[r]++
		return nil
	}, rng.New(26))
	g.Start()
	e.RunFor(5 * time.Minute)
	total := got[0] + got[1]
	frac := float64(got[0]) / float64(total)
	if frac < 0.74 || frac > 0.86 {
		t.Fatalf("region 0 fraction = %v, want ≈0.8", frac)
	}
	// Empty weights default to a single region.
	g2 := NewGenerator(e, pop, nil, func(cluster.RegionID, string, *function.Call) error { return nil }, rng.New(27))
	g2.Start()
	e.RunFor(time.Second)
}
