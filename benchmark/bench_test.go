package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// shortSeconds runs every window at 1/50 of the reference size.
const shortSeconds = referenceSeconds / 50.0

// manifest is the part of ../BENCHMARK.json the smoke test checks the
// program against.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs every workload through all three passes at 1/50 size and
// checks the emitted metrics against BENCHMARK.json: each named workload
// and metric appears exactly once with the manifest's unit, names are
// well-formed, no value is NaN, and every built-in correctness check
// passes (which includes: the two-step psim window equals the one-shot
// Seq Run, and each traced pass has its timed pass's digest).
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	rep, err := execute(options{workloads: names, seed: 1, seconds: shortSeconds, trace: -1, spanDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, the program has %d", len(rep.Workloads), len(workloads))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	compare := func(workload, kind string, want []struct{ Name, Unit string }, got map[string]metric) {
		seen := map[string]bool{}
		for _, d := range want {
			if seen[d.Name] {
				t.Errorf("%s: %s metric %q is named twice in BENCHMARK.json", workload, kind, d.Name)
			}
			seen[d.Name] = true
			g, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s metric %q is not emitted", workload, kind, d.Name)
			case g.Unit != d.Unit || g.Unit == "":
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, d.Name, g.Unit, d.Unit)
			case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
				t.Errorf("%s: %s = %v", workload, d.Name, g.Value)
			case !wellFormed.MatchString(d.Name):
				t.Errorf("%s: malformed metric name %q", workload, d.Name)
			}
		}
		for name := range got {
			if !seen[name] {
				t.Errorf("%s: emits %s metric %q that BENCHMARK.json does not name", workload, kind, name)
			}
		}
	}
	for i, w := range rep.Workloads {
		if w.Name != names[i] || !wellFormed.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, names[i])
		}
		compare(w.Name, "end-to-end", m.EndToEnd, w.EndToEnd)
		compare(w.Name, "per-layer", m.PerLayer, w.PerLayer)
		for _, c := range w.Checks {
			if !c.OK {
				t.Errorf("%s: check failed: %s (%s)", w.Name, c.Name, c.Detail)
			}
		}
		if w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		for _, trace := range []int{0, 1} {
			line, err := w.contractLine(trace)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil || len(obj) != 4 {
				t.Errorf("%s: contract line has %d keys (%v): %s", w.Name, len(obj), err, line)
			}
		}
	}
	if !rep.Correct {
		t.Error("report is not correct")
	}
}

// TestSpanPolicyIsPush checks that the harness's span policy and submit
// wrapper perturb nothing: a seeded run under them leaves every public
// counter and gauge, engine event count included, exactly as policy.Push
// leaves it.
func TestSpanPolicyIsPush(t *testing.T) {
	run := func(sp *spanRecorder) string {
		rg := buildDay(3, false, sp)
		if sp != nil {
			sp.on = true
			sp.slice = sp.open(spanSlice, -1, sp.now())
		}
		rg.advance(3 * time.Minute)
		return fmt.Sprintf("%+v digest=%s", rg.read(), rg.digest(rg.read()))
	}
	sp := newSpanRecorder()
	push, spanned := run(nil), run(sp)
	if push != spanned {
		t.Errorf("span policy diverged from policy.Push:\n push: %s\n span: %s", push, spanned)
	}
	if sp.count[spanTick] == 0 || sp.count[spanSubmit] == 0 || sp.count[spanPoll] != sp.count[spanTick] {
		t.Errorf("spans recorded: %d ticks, %d polls, %d submits", sp.count[spanTick], sp.count[spanPoll], sp.count[spanSubmit])
	}
}
