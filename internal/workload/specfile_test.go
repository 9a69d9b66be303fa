package workload

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
)

func TestParseSpecFileExample(t *testing.T) {
	data, err := os.ReadFile("testdata/workload.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ParseSpecFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Functions) != 3 {
		t.Fatalf("parsed %d functions, want 3", len(sf.Functions))
	}
	pop, err := sf.Population(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if pop.Registry.Len() != 3 || len(pop.Models) != 3 {
		t.Fatalf("population: %d registered, %d models", pop.Registry.Len(), len(pop.Models))
	}
	// Spot-check materialized specs against the file.
	resize, ok := pop.Registry.Get("thumbnail-resize")
	if !ok {
		t.Fatal("thumbnail-resize not registered")
	}
	if resize.Criticality != function.CritHigh || resize.Quota != function.QuotaReserved ||
		resize.Deadline != time.Minute || resize.ConcurrencyLimit != 32 || resize.Team != "media" {
		t.Fatalf("bad spec %+v", resize)
	}
	nightly, _ := pop.Registry.Get("nightly-aggregation")
	if nightly.Quota != function.QuotaOpportunistic || nightly.Deadline != 24*time.Hour {
		t.Fatalf("opportunistic defaults not applied: %+v", nightly)
	}
	// The burst function replaces its rate model.
	var burst *FuncModel
	for _, m := range pop.Models {
		if m.Spec.Name == "spiky-scraper" {
			burst = m
		}
	}
	if burst == nil || burst.Burst == nil {
		t.Fatal("burst model missing")
	}
	if burst.RateAt(30*time.Second) != 40 || burst.RateAt(5*time.Minute) != 0 {
		t.Fatalf("burst rate model wrong: in=%v out=%v",
			burst.RateAt(30*time.Second), burst.RateAt(5*time.Minute))
	}
}

func TestParseSpecFileRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty doc", `{}`, "no functions"},
		{"empty list", `{"functions": []}`, "no functions"},
		{"missing name", `{"functions": [{"mean_rps": 1}]}`, "name required"},
		{"duplicate name", `{"functions": [{"name": "a"}, {"name": "a"}]}`, "duplicate name"},
		{"bad criticality", `{"functions": [{"name": "a", "criticality": "urgent"}]}`, "criticality"},
		{"bad quota", `{"functions": [{"name": "a", "quota": "free"}]}`, "quota"},
		{"negative rps", `{"functions": [{"name": "a", "mean_rps": -1}]}`, "mean_rps"},
		{"negative concurrency", `{"functions": [{"name": "a", "concurrency_limit": -2}]}`, "concurrency_limit"},
		{"diurnal over 1", `{"functions": [{"name": "a", "diurnal_amplitude": 1.5}]}`, "diurnal_amplitude"},
		{"future frac over 1", `{"functions": [{"name": "a", "future_start_frac": 2}]}`, "future_start_frac"},
		{"burst zero period", `{"functions": [{"name": "a", "burst": {"every_seconds": 0, "len_seconds": 1, "rps": 1}}]}`, "burst"},
		{"burst longer than period", `{"functions": [{"name": "a", "burst": {"every_seconds": 10, "len_seconds": 20, "rps": 1}}]}`, "len_seconds"},
		{"unknown field", `{"functions": [{"name": "a", "criticalty": "high"}]}`, "unknown field"},
		{"trailing garbage", `{"functions": [{"name": "a"}]} extra`, "trailing"},
		{"deadline over 24h", `{"functions": [{"name": "a", "deadline_seconds": 90000}]}`, "deadline above 24h"},
		{"deadline under 1ns", `{"functions": [{"name": "a", "deadline_seconds": 1e-10}]}`, "non-positive deadline"},
		{"not json", `]]]`, "config"}, // any parse error will do
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpecFile([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
			if tc.want != "config" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParsedSpecFileBuilds: a deadline of exactly 24 h parses, and
// Population, which registers through Add, builds the completed spec.
func TestParsedSpecFileBuilds(t *testing.T) {
	sf, err := ParseSpecFile([]byte(`{"functions": [{"name": "a", "deadline_seconds": 86400}]}`))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := sf.Population(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := pop.Registry.Get("a"); s.Deadline != 24*time.Hour || s.Namespace != "main" || s.Retry != function.DefaultRetry {
		t.Fatalf("registered %+v", s)
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	data, err := os.ReadFile("testdata/workload.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := ParseSpecFile(data)
	if err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	sf2, err := ParseSpecFile(re)
	if err != nil {
		t.Fatalf("re-parse of marshaled spec failed: %v\n%s", err, re)
	}
	if !reflect.DeepEqual(sf, sf2) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", sf, sf2)
	}
}

// FuzzParseSpecFile asserts the parser never panics, and that any
// accepted document round-trips losslessly and builds a population
// without panicking.
func FuzzParseSpecFile(f *testing.F) {
	if data, err := os.ReadFile("testdata/workload.json"); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{"functions": [{"name": "a"}]}`))
	f.Add([]byte(`{"functions": [{"name": "a", "mean_rps": 1e308}]}`))
	f.Add([]byte(`{"functions": [{"name": "a", "burst": {"every_seconds": 1, "len_seconds": 1, "rps": 1}}]}`))
	f.Add([]byte(`{"functions": [{"name": " ", "quota": "opportunistic"}]}`))
	f.Add([]byte(`{"functions": [{"name": "a", "deadline_seconds": 90000}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ParseSpecFile(data)
		if err != nil {
			return
		}
		re, merr := json.Marshal(sf)
		if merr != nil {
			t.Fatalf("accepted spec does not marshal: %v", merr)
		}
		sf2, rerr := ParseSpecFile(re)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v\n%s", rerr, re)
		}
		if !reflect.DeepEqual(sf, sf2) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", sf, sf2)
		}
		if _, perr := sf.Population(rng.New(1)); perr != nil {
			t.Fatalf("valid spec failed to build a population: %v", perr)
		}
	})
}
