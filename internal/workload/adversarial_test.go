package workload

import (
	"fmt"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/isolation"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

func emptyPop() *Population {
	return &Population{Registry: function.NewRegistry(), TeamOf: map[string]string{}}
}

func TestBuildStormMixShape(t *testing.T) {
	cfg := DefaultStormMix("backend")
	pop := emptyPop()
	BuildStormMix(pop, cfg, rng.New(1))

	wantFuncs := cfg.StormFunctions + cfg.CleanFunctions
	if pop.Registry.Len() != wantFuncs || len(pop.Models) != wantFuncs {
		t.Fatalf("registered %d specs, %d models; want %d each",
			pop.Registry.Len(), len(pop.Models), wantFuncs)
	}
	for i := 0; i < cfg.StormFunctions; i++ {
		name := fmt.Sprintf("storm-%02d", i)
		spec, ok := pop.Registry.Get(name)
		if !ok {
			t.Fatalf("aggressor %s not registered", name)
		}
		if spec.Downstream != "backend" {
			t.Fatalf("%s downstream %q, want backend", name, spec.Downstream)
		}
		if spec.Criticality != function.CritHigh {
			t.Fatalf("%s criticality %v, want high — the storm must come from important work", name, spec.Criticality)
		}
		if spec.Retry != stormRetry {
			t.Fatalf("%s retry %+v, want the storm policy %+v", name, spec.Retry, stormRetry)
		}
		if spec.Deadline != stormDeadline {
			t.Fatalf("%s deadline %v, want %v", name, spec.Deadline, stormDeadline)
		}
		if pop.TeamOf[name] != "team-storm" {
			t.Fatalf("%s team %q", name, pop.TeamOf[name])
		}
	}
	for i := 0; i < cfg.CleanFunctions; i++ {
		name := fmt.Sprintf("clean-%02d", i)
		spec, ok := pop.Registry.Get(name)
		if !ok {
			t.Fatalf("victim %s not registered", name)
		}
		if spec.Downstream != "" {
			t.Fatalf("victim %s has downstream %q; the clean cohort must not touch it", name, spec.Downstream)
		}
		if spec.Retry != function.DefaultRetry {
			t.Fatalf("victim %s retry %+v, want default", name, spec.Retry)
		}
	}
	// Arrival rates: every model is constant-rate at its cohort's RPS.
	for _, m := range pop.Models {
		want := cfg.StormRPSPerFunc
		if m.Spec.Downstream == "" {
			want = cfg.CleanRPSPerFunc
		}
		if got := m.RateAt(sim.Time(time.Hour)); got != want {
			t.Fatalf("%s rate %g, want %g", m.Spec.Name, got, want)
		}
	}
}

func TestBuildStormMixDrawsAreIndependent(t *testing.T) {
	// Each model must get its own split source: two calls drawn from two
	// different models must not be forced equal by a shared stream, and
	// the same seed must rebuild the identical population (determinism).
	mk := func() *Population {
		pop := emptyPop()
		BuildStormMix(pop, DefaultStormMix("backend"), rng.New(7))
		return pop
	}
	a, b := mk(), mk()
	for i := range a.Models {
		ca := a.Models[i].NewCall(0)
		cb := b.Models[i].NewCall(0)
		if ca.CPUWorkM != cb.CPUWorkM || ca.MemMB != cb.MemMB || ca.ExecSecs != cb.ExecSecs {
			t.Fatalf("model %d not deterministic across rebuilds", i)
		}
		if ca.CPUWorkM <= 0 || ca.MemMB <= 0 || ca.ExecSecs <= 0 {
			t.Fatalf("model %d drew non-positive resources: %+v", i, ca)
		}
	}
}

func TestBuildNoisyNeighborShape(t *testing.T) {
	pop := emptyPop()
	BuildNoisyNeighbor(pop, rng.New(1))

	if pop.Registry.Len() != NoisyVictims+1 {
		t.Fatalf("registered %d specs, want %d victims + 1 noisy", pop.Registry.Len(), NoisyVictims)
	}
	noisy, ok := pop.Registry.Get("noisy-00")
	if !ok {
		t.Fatal("noisy-00 not registered")
	}
	if noisy.Quota != function.QuotaOpportunistic || noisy.Criticality != function.CritLow {
		t.Fatalf("noisy tenant must be low-crit opportunistic, got quota=%v crit=%v",
			noisy.Quota, noisy.Criticality)
	}
	if noisy.Deadline != noisyDeadline {
		t.Fatalf("noisy deadline %v, want %v", noisy.Deadline, noisyDeadline)
	}
	for i := 0; i < NoisyVictims; i++ {
		name := fmt.Sprintf("victim-%02d", i)
		spec, ok := pop.Registry.Get(name)
		if !ok {
			t.Fatalf("victim %s not registered", name)
		}
		if spec.Quota != function.QuotaReserved {
			t.Fatalf("victim %s quota %v, want reserved", name, spec.Quota)
		}
		if team := pop.TeamOf[name]; team == pop.TeamOf["noisy-00"] {
			t.Fatalf("victim %s shares the noisy tenant's team %q", name, team)
		}
	}
}

func TestBuildNoisyNeighborFloodWindow(t *testing.T) {
	pop := emptyPop()
	BuildNoisyNeighbor(pop, rng.New(1))

	var noisy *FuncModel
	for _, m := range pop.Models {
		if m.Spec.Name == "noisy-00" {
			noisy = m
		}
	}
	if noisy == nil || noisy.Burst == nil {
		t.Fatal("noisy model missing its burst")
	}
	eps := sim.Time(time.Second)
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 0}, // before the flood
		{sim.Time(NoisyFloodStart) - eps, 0},
		{sim.Time(NoisyFloodStart) + eps, NoisyFloodRPS},
		{sim.Time(NoisyFloodStart + NoisyFloodLen/2), NoisyFloodRPS},
		{sim.Time(NoisyFloodStart+NoisyFloodLen) + eps, 0},
		{sim.Time(10 * time.Hour), 0}, // one-shot: silent for the rest of the run
		{sim.Time(100 * time.Hour), 0},
	}
	for _, tc := range cases {
		if got := noisy.RateAt(tc.at); got != tc.want {
			t.Fatalf("noisy rate at %v = %g, want %g", time.Duration(tc.at), got, tc.want)
		}
	}
	// Victims are steady throughout, flood or not.
	for _, m := range pop.Models {
		if m.Spec.Name == "noisy-00" {
			continue
		}
		for _, at := range []sim.Time{0, sim.Time(NoisyFloodStart + NoisyFloodLen/2), sim.Time(30 * time.Hour)} {
			if got := m.RateAt(at); got != NoisyVictimRPS {
				t.Fatalf("victim %s rate at %v = %g, want %g",
					m.Spec.Name, time.Duration(at), got, NoisyVictimRPS)
			}
		}
	}
}

// TestAddFillsOnlyZeroFields: Add completes what a hand-written spec
// leaves zero and keeps what it sets.
func TestAddFillsOnlyZeroFields(t *testing.T) {
	pop := emptyPop()
	bare := pop.Add(&function.Spec{Name: "bare", Team: "t", Deadline: time.Minute}, 2, rng.New(1))
	set := pop.Add(&function.Spec{
		Name: "set", Team: "t", Deadline: time.Minute, Namespace: "ns", Runtime: "hack",
		Quota: function.QuotaOpportunistic, Retry: stormRetry,
		Zone:      isolation.NewZone(isolation.Restricted),
		Resources: function.ResourceModel{CodeMB: 16, JITCodeMB: 6},
	}, 0, rng.New(2))
	b, s := bare.Spec, set.Spec
	if b.Namespace != "main" || b.Runtime != "php" || b.Trigger != function.TriggerQueue ||
		b.Quota != function.QuotaReserved || b.Retry != function.DefaultRetry ||
		b.Zone.Level != isolation.Internal || b.Resources.CodeMB != 8 || b.Resources.JITCodeMB != 4 {
		t.Errorf("bare spec completed as %+v", *b)
	}
	if s.Namespace != "ns" || s.Runtime != "hack" || s.Quota != function.QuotaOpportunistic ||
		s.Retry != stormRetry || s.Zone.Level != isolation.Restricted || s.Resources.CodeMB != 16 || s.Resources.JITCodeMB != 6 {
		t.Errorf("set spec overwritten: %+v", *s)
	}
	if len(pop.Models) != 2 || pop.Models[0] != bare || bare.MeanRPS != 2 || bare.Client != "t" || pop.TeamOf["set"] != "t" {
		t.Errorf("models %v, team map %v", pop.Models, pop.TeamOf)
	}
	if _, ok := pop.Registry.Get("set"); !ok {
		t.Error("spec not registered")
	}
}
