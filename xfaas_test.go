package xfaas_test

import (
	"math"
	"testing"
	"time"

	"xfaas"
	"xfaas/internal/function"
)

func TestPublicAPIQuickstart(t *testing.T) {
	cfg := xfaas.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0

	reg := xfaas.NewRegistry()
	spec := &xfaas.FunctionSpec{
		Name: "api-test", Namespace: "main", Runtime: "php",
		Trigger: xfaas.TriggerQueue, Criticality: xfaas.CritNormal,
		Quota: xfaas.QuotaReserved, Deadline: 5 * time.Minute,
		Retry: xfaas.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second},
		Zone:  xfaas.NewZone(xfaas.Internal),
		Resources: xfaas.ResourceModel{
			CPUMu: math.Log(10), CPUSigma: 0.3,
			MemMu: math.Log(8), MemSigma: 0.3,
			TimeMu: math.Log(0.1), TimeSigma: 0.3,
			CodeMB: 8, JITCodeMB: 4,
		},
	}
	reg.MustRegister(spec)
	p := xfaas.New(cfg, reg)

	src := xfaas.NewRand(1)
	for i := 0; i < 200; i++ {
		c := &xfaas.Call{
			Spec:     spec,
			CPUWorkM: src.LogNormal(math.Log(10), 0.3),
			MemMB:    src.LogNormal(math.Log(8), 0.3),
			ExecSecs: src.LogNormal(math.Log(0.1), 0.3),
		}
		if err := p.Submit(xfaas.RegionID(i%2), "client", c); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.Engine.RunFor(10 * time.Minute)
	if p.Acked() != 200 {
		t.Fatalf("acked = %v, want 200", p.Acked())
	}
}

func TestPublicAPIWorkloadRoundTrip(t *testing.T) {
	pcfg := xfaas.DefaultPopulationConfig()
	pcfg.Functions = 30
	pcfg.TotalRPS = 5
	pcfg.SpikyFunctions = 0
	pop := xfaas.NewPopulation(pcfg, xfaas.NewRand(3))
	if pop.Registry.Len() < 30 {
		t.Fatalf("population functions = %d", pop.Registry.Len())
	}
	cfg := xfaas.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = xfaas.ProvisionWorkers(cfg.Worker,
		pop.ExpectedMIPS()*1.4, pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS)*1.4, 0.66, 4)
	cfg.CodePushInterval = 0
	p := xfaas.New(cfg, pop.Registry)
	gen := xfaas.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), xfaas.NewRand(4))
	gen.Start()
	p.Engine.RunFor(30 * time.Minute)
	if gen.Generated.Value() == 0 {
		t.Fatal("no calls generated")
	}
	if p.Acked() < gen.Generated.Value()*0.3 {
		t.Fatalf("acked %v of %v", p.Acked(), gen.Generated.Value())
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	all := xfaas.Experiments()
	if len(all) < 20 {
		t.Fatalf("experiments = %d, want ≥20", len(all))
	}
	e, ok := xfaas.ExperimentByID("table1")
	if !ok {
		t.Fatal("table1 missing")
	}
	res := e.Run(xfaas.QuickScale())
	if !res.ChecksOK() {
		t.Fatalf("table1 checks failed:\n%s", res.Render(false))
	}
	if _, ok := xfaas.ExperimentByID("not-a-figure"); ok {
		t.Fatal("bogus experiment resolved")
	}
}

func TestScalesDiffer(t *testing.T) {
	q, f := xfaas.QuickScale(), xfaas.FullScale()
	if q.Quick == f.Quick {
		t.Fatal("scales should differ")
	}
}

func TestTriggerFacade(t *testing.T) {
	cfg := xfaas.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 8
	cfg.CodePushInterval = 0

	reg := xfaas.NewRegistry()
	declare := func(name string, trig function.TriggerType, seed uint64) *xfaas.FuncModel {
		spec := &xfaas.FunctionSpec{
			Name: name, Namespace: "main", Runtime: "php", Team: "team-triggers",
			Trigger: trig, Deadline: 15 * time.Minute,
			Retry: xfaas.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second},
			Zone:  xfaas.NewZone(xfaas.Internal),
			Resources: xfaas.ResourceModel{
				CPUMu: math.Log(20), CPUSigma: 0.4,
				MemMu: math.Log(16), MemSigma: 0.4,
				TimeMu: math.Log(0.2), TimeSigma: 0.4,
				CodeMB: 8, JITCodeMB: 4,
			},
		}
		reg.MustRegister(spec)
		return xfaas.NewFuncModel(spec, 0, spec.Team, xfaas.NewRand(seed))
	}
	logproc := declare("facade-logproc", xfaas.TriggerEvent, 1)
	campaign := declare("facade-campaign", xfaas.TriggerTimer, 2)
	extract := declare("facade-extract", xfaas.TriggerQueue, 3)
	load := declare("facade-load", xfaas.TriggerQueue, 4)

	p := xfaas.New(cfg, reg)
	submit := p.SubmitFunc()

	stream := xfaas.NewStream(p.Engine, submit, logproc, 0, "facade-events", 4)
	producer := xfaas.NewRand(7)
	p.Engine.Every(time.Second, func() { stream.Produce(producer.Uint64(), producer.Poisson(20)) })

	timers := xfaas.NewTimers(p.Engine, submit)
	timers.Schedule(campaign, 1, 10*time.Minute, time.Minute)

	etl := xfaas.NewWorkflowTrigger(p, submit, 0, extract, load)
	p.Engine.Every(10*time.Minute, func() { etl.Start(p.Engine.Now()) })

	p.Engine.RunFor(30 * time.Minute)
	if stream.Invocations.Value() == 0 {
		t.Fatal("stream trigger produced no invocations")
	}
	if timers.Fired.Value() == 0 {
		t.Fatal("timer trigger never fired")
	}
	if etl.Completed.Value() == 0 {
		t.Fatal("workflow trigger never completed")
	}
}

func TestParallelFacade(t *testing.T) {
	opts := xfaas.DefaultParallelOptions()
	opts.Minutes = 2
	opts.TotalWorkers = 16
	opts.Functions = 24
	opts.RPS = 30

	opts.Seq = true
	ref := xfaas.NewParallel(opts).Run()
	opts.Seq = false
	r := xfaas.NewParallel(opts)
	if got := r.Run(); got != ref {
		t.Fatalf("parallel report diverged from -seq reference:\n--- seq ---\n%s--- parallel ---\n%s", ref, got)
	}

	if r.Group.Processed() == 0 {
		t.Fatal("no events processed")
	}
}

func TestZoneAPI(t *testing.T) {
	low := xfaas.NewZone(xfaas.Public)
	high := xfaas.NewZone(xfaas.Restricted, "pii")
	if !low.DominatedBy(high) {
		t.Fatal("public should flow to restricted{pii}")
	}
	if high.DominatedBy(low) {
		t.Fatal("restricted{pii} must not flow to public")
	}
}
