package core

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/queuelb"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/utilization"
	"xfaas/internal/workload"
)

func TestLoadConfigExample(t *testing.T) {
	data, err := os.ReadFile("testdata/config.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Cluster.Regions != 3 || cfg.Cluster.TotalWorkers != 24 {
		t.Fatalf("cluster overrides not applied: %+v", cfg.Cluster)
	}
	if cfg.SchedulersPerRegion != 2 || cfg.LeaseTimeout != 5*time.Minute {
		t.Fatalf("scheduler overrides not applied")
	}
	if cfg.LocalityGroups != 0 {
		t.Fatalf("explicit zero must override the default: %d", cfg.LocalityGroups)
	}
	if cfg.CodePushInterval != 0 {
		t.Fatalf("code push interval: %v", cfg.CodePushInterval)
	}
	if !cfg.Trace.Enabled || cfg.Trace.SampleEvery != 8 {
		t.Fatalf("trace overrides: %+v", cfg.Trace)
	}
	if !cfg.Invariants.Enabled || cfg.Invariants.Interval != 30*time.Second {
		t.Fatalf("invariant overrides: %+v", cfg.Invariants)
	}
	// Untouched fields keep their defaults.
	def := DefaultConfig()
	if cfg.EnableGTC != def.EnableGTC || cfg.QueueLocalFrac != 0.9 {
		t.Fatalf("default preservation broken")
	}
}

func TestLoadConfigEmptyIsIdentity(t *testing.T) {
	cfg, err := LoadConfig([]byte(`{}`), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatal("empty override changed the config")
	}
}

func TestLoadConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"zero regions", `{"regions": 0}`, "regions"},
		{"negative workers", `{"total_workers": -1}`, "total_workers"},
		{"zero schedulers", `{"schedulers_per_region": 0}`, "schedulers_per_region"},
		{"zero lease", `{"lease_timeout_seconds": 0}`, "lease_timeout_seconds"},
		{"lease at the renewal interval", `{"lease_timeout_seconds": 240}`, "lease_timeout_seconds"},
		{"lease under the renewal interval", `{"lease_timeout_seconds": 90}`, "lease_timeout_seconds"},
		{"frac over 1", `{"queue_local_frac": 1.5}`, "queue_local_frac"},
		{"negative groups", `{"locality_groups": -1}`, "locality_groups"},
		{"util target zero", `{"utilization_target": 0}`, "utilization_target"},
		{"sample zero", `{"trace": {"sample_every": 0}}`, "sample_every"},
		{"bad interval", `{"invariants": {"interval_seconds": -5}}`, "interval_seconds"},
		{"fewer workers than the default regions", `{"total_workers": 5}`, "regions"},
		{"more regions than the default workers", `{"regions": 2000}`, "regions"},
		{"unknown field", `{"regons": 3}`, "unknown field"},
		{"trailing garbage", `{} {}`, "trailing"},
		{"not json", `nope`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadConfig([]byte(tc.in), DefaultConfig())
			if err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadConfigBuildsPlatform: an accepted config must construct a
// working platform end to end.
func TestLoadConfigBuildsPlatform(t *testing.T) {
	data, err := os.ReadFile("testdata/config.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(data, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := New(cfg, function.NewRegistry())
	p.Engine.RunFor(time.Minute)
	if p.Inv == nil || !p.Inv.Enabled() {
		t.Fatal("invariants.enabled in the file did not wire the checker")
	}
	if len(p.Regions()) != 3 {
		t.Fatalf("regions = %d", len(p.Regions()))
	}
}

// FuzzParseConfigFile asserts the parser never panics, that accepted
// documents round-trip losslessly, and that applying them preserves the
// validated bounds.
func FuzzParseConfigFile(f *testing.F) {
	if data, err := os.ReadFile("testdata/config.json"); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"regions": 1, "total_workers": 1}`))
	f.Add([]byte(`{"locality_groups": 0, "enable_gtc": false}`))
	f.Add([]byte(`{"invariants": {"enabled": true}}`))
	f.Add([]byte(`{"spiky_clients": ["a", "b"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := ParseConfigFile(data)
		if err != nil {
			return
		}
		re, merr := json.Marshal(cf)
		if merr != nil {
			t.Fatalf("accepted config does not marshal: %v", merr)
		}
		cf2, rerr := ParseConfigFile(re)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v\n%s", rerr, re)
		}
		if !reflect.DeepEqual(cf, cf2) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", cf, cf2)
		}
		cfg := cf.Apply(DefaultConfig())
		if cfg.Cluster.Regions < 1 || cfg.Cluster.TotalWorkers < 1 ||
			cfg.SchedulersPerRegion < 0 || cfg.LeaseTimeout <= scheduler.LeaseRenewInterval ||
			cfg.QueueLocalFrac < 0 || cfg.QueueLocalFrac > 1 {
			t.Fatalf("validated config violates bounds: %+v", cfg)
		}
	})
}

// jsonKeys lists the dotted JSON key of every leaf of a ConfigFile-shaped
// struct (pointers to structs are sections).
func jsonKeys(t reflect.Type, prefix string) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			keys = append(keys, jsonKeys(f.Type.Elem(), prefix+name+".")...)
			continue
		}
		keys = append(keys, prefix+name)
	}
	return keys
}

// TestConfigFileKeysReachThePlatform sets each ConfigFile key alone and
// checks the built platform behaves differently for it, so no key can be
// accepted by the parser and then dropped on the way to a component.
func TestConfigFileKeysReachThePlatform(t *testing.T) {
	base := DefaultConfig()
	base.Cluster.Regions = 2
	base.Cluster.TotalWorkers = 40
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 8
	pop := workload.NewPopulation(pcfg, rng.New(1))
	aFunc := pop.Registry.Names()[0]

	cases := []struct {
		key, doc string
		run      time.Duration
		check    func(p *Platform) bool
	}{
		{"seed", `{"seed": 99}`, 0, func(p *Platform) bool { // the seed draws the capacity skew
			return len(p.Region(0).Workers) != len(New(base, pop.Registry).Region(0).Workers)
		}},
		{"regions", `{"regions": 3}`, 0, func(p *Platform) bool { return len(p.Regions()) == 3 }},
		{"total_workers", `{"total_workers": 50}`, 0, func(p *Platform) bool {
			return len(p.Region(0).Workers)+len(p.Region(1).Workers) == 50
		}},
		{"schedulers_per_region", `{"schedulers_per_region": 3}`, 0, func(p *Platform) bool {
			return len(p.Region(0).Scheds) == 3 && len(p.Region(1).Scheds) == 3
		}},
		{"lease_timeout_seconds", `{"lease_timeout_seconds": 600}`, 0, func(p *Platform) bool {
			for _, reg := range p.Regions() {
				for _, sh := range reg.Shards {
					if sh.LeaseTimeout != 600*time.Second {
						return false
					}
				}
			}
			return true
		}},
		{"queue_local_frac", `{"queue_local_frac": 0.5}`, 0, func(p *Platform) bool {
			v, ok := config.NewCache(p.Store, queuelb.PolicyKey).Get()
			return ok && v.(queuelb.RoutingPolicy)[0][0] == 0.5
		}},
		{"locality_groups", `{"locality_groups": 2}`, 0, func(p *Platform) bool {
			a := p.Region(0).LB.Assignment()
			return a != nil && a.Groups == 2
		}},
		{"enable_gtc", `{"enable_gtc": false}`, 0, func(p *Platform) bool { return p.GTC == nil }},
		{"code_push_interval_seconds", `{"code_push_interval_seconds": 60}`, time.Minute, func(p *Platform) bool {
			return p.codeVersion == 1
		}},
		{"spiky_clients", `{"spiky_clients": ["bursty"]}`, 0, func(p *Platform) bool {
			return p.spiky["bursty"] && !p.spiky["team-spiky"]
		}},
		{"prewarm_jit", `{"prewarm_jit": false}`, 0, func(p *Platform) bool {
			return p.Region(0).Workers[0].Runtime.SpeedFactor(aFunc, 0) != 1
		}},
		{"utilization_target", `{"utilization_target": 0.5}`, utilization.Interval, func(p *Platform) bool {
			return p.Util.S() == 1+utilization.Gain*0.5 // one step on an idle fleet
		}},
		{"trace.enabled", `{"trace": {"enabled": true}}`, 0, func(p *Platform) bool { return p.Tracer.Enabled() }},
		{"trace.sample_every", `{"trace": {"sample_every": 16}}`, 0, func(p *Platform) bool {
			return p.Tracer.Params().SampleEvery == 16
		}},
		{"invariants.enabled", `{"invariants": {"enabled": true}}`, 0, func(p *Platform) bool { return p.Inv.Enabled() }},
		{"invariants.interval_seconds", `{"invariants": {"enabled": true, "interval_seconds": 10}}`, time.Minute,
			func(p *Platform) bool { return p.Inv.Evals() == 6 }},
	}

	var covered []string
	for _, tc := range cases {
		covered = append(covered, tc.key)
		build := func(cfg Config) *Platform {
			p := New(cfg, pop.Registry)
			p.Engine.RunFor(tc.run)
			return p
		}
		cfg, err := LoadConfig([]byte(tc.doc), base)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		if !tc.check(build(cfg)) {
			t.Errorf("%s: the platform built from %s does not observe the key", tc.key, tc.doc)
		}
		if tc.check(build(base)) {
			t.Errorf("%s: the check also holds without the key, so it proves nothing", tc.key)
		}
	}
	if want := jsonKeys(reflect.TypeOf(ConfigFile{}), ""); !reflect.DeepEqual(covered, want) {
		t.Errorf("table covers %v, ConfigFile has %v", covered, want)
	}
}
