package config

import "testing"

func TestDefaultPolicyValidatesAndIsPush(t *testing.T) {
	p := DefaultPolicy()
	if p.Name != PolicyPush {
		t.Fatalf("default policy name %q, want push", p.Name)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	// The zero value (empty name) is also legal: zero-value scheduler
	// Params must keep working.
	if err := (Policy{}).Validate(); err != nil {
		t.Fatalf("zero-value policy invalid: %v", err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("PolicyByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("PolicyByName accepted an unknown name")
	}
}

func TestPolicyValidateBounds(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*Policy)
	}{
		{"unknown name", func(p *Policy) { p.Name = "nope" }},
		{"negative max_per_worker", func(p *Policy) { p.Pull.MaxPerWorker = -1 }},
		{"alpha above 1", func(p *Policy) { p.Prewarm.Alpha = 1.5 }},
		{"negative beta", func(p *Policy) { p.Prewarm.Beta = -0.1 }},
		{"max_boost below 1", func(p *Policy) { p.Prewarm.MaxBoost = 0.5 }},
		{"huge top_k", func(p *Policy) { p.Prewarm.TopK = 1 << 21 }},
		{"negative horizon", func(p *Policy) { p.Prewarm.HorizonTicks = -1 }},
		{"perf above 1", func(p *Policy) { p.SPES.Perf = 2 }},
		{"negative spare_target", func(p *Policy) { p.SPES.SpareTarget = -0.2 }},
		{"negative interval", func(p *Policy) { p.SPES.IntervalTicks = -5 }},
	}
	for _, tc := range cases {
		p := DefaultPolicy()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.label)
		}
	}
}
