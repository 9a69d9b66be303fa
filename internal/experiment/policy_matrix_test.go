package experiment

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestJainIndex(t *testing.T) {
	cases := []struct {
		label string
		in    map[string]float64
		want  float64
	}{
		{"empty", map[string]float64{}, 1},
		{"all zero", map[string]float64{"a": 0, "b": 0}, 1},
		{"perfectly fair", map[string]float64{"a": 5, "b": 5, "c": 5, "d": 5}, 1},
		{"one user hogs", map[string]float64{"a": 10, "b": 0, "c": 0, "d": 0}, 0.25},
		{"two of four", map[string]float64{"a": 6, "b": 6, "c": 0, "d": 0}, 0.5},
	}
	for _, tc := range cases {
		if got := jainIndex(tc.in); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: jainIndex = %g, want %g", tc.label, got, tc.want)
		}
	}
	// Fairness is scale-free: multiplying every share by a constant
	// cannot change the index.
	base := map[string]float64{"a": 1, "b": 2, "c": 7}
	scaled := map[string]float64{"a": 10, "b": 20, "c": 70}
	if math.Abs(jainIndex(base)-jainIndex(scaled)) > 1e-12 {
		t.Error("jainIndex is not scale-free")
	}
}

func TestPolicyMatrixJSONShape(t *testing.T) {
	m := PolicyMatrix{
		Schema:    PolicyMatrixSchema,
		Seed:      7,
		Scenarios: []string{"retrystorm"},
		Policies:  []string{"push"},
		Cells: []PolicyCell{{
			Scenario: "retrystorm", Policy: "push",
			UtilizationMean: 0.5, P99E2ESeconds: 1.25, ColdStartExposure: 0.1,
			ShedCalls: 3, ExpiredCalls: 2, JainFairness: 0.9, Executed: 100,
		}},
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"schema"`, `"seed"`, `"scenario"`, `"policy"`, `"utilization_mean"`,
		`"p99_e2e_seconds"`, `"cold_start_exposure"`, `"shed_calls"`,
		`"expired_calls"`, `"jain_fairness"`, `"executed"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("matrix JSON missing %s: %s", key, data)
		}
	}
	// The document must be reproducible byte for byte from the same seed:
	// no wall-clock timestamps or other environment leakage.
	for _, banned := range []string{"date", "time", "host"} {
		if strings.Contains(string(data), `"`+banned+`"`) {
			t.Errorf("matrix JSON carries non-deterministic field %q", banned)
		}
	}
}

// TestRunPolicyMatrixProducesFullGrid runs the real matrix once: every
// scenario × policy cell must be present, in deterministic order, with
// live results — work executed, utilization and fairness in range, and
// the cold-start axis actually differentiating at least one pair of
// policies somewhere (the matrix exists to expose such differences).
func TestRunPolicyMatrixProducesFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix simulation")
	}
	t.Parallel()
	m := RunPolicyMatrix(7)
	if m.Schema != PolicyMatrixSchema || m.Seed != 7 {
		t.Fatalf("header = %q seed %d", m.Schema, m.Seed)
	}
	wantCells := len(m.Scenarios) * len(m.Policies)
	if len(m.Cells) != wantCells || wantCells == 0 {
		t.Fatalf("got %d cells, want %d", len(m.Cells), wantCells)
	}
	i := 0
	coldSpread := false
	for _, sc := range m.Scenarios {
		low, high := math.Inf(1), 0.0
		for _, pol := range m.Policies {
			c := m.Cells[i]
			i++
			if c.Scenario != sc || c.Policy != pol {
				t.Fatalf("cell %d is %s/%s, want %s/%s (order must be deterministic)",
					i-1, c.Scenario, c.Policy, sc, pol)
			}
			if c.Executed == 0 {
				t.Fatalf("%s/%s executed nothing", sc, pol)
			}
			if c.UtilizationMean <= 0 || c.UtilizationMean > 1 {
				t.Fatalf("%s/%s utilization %v out of range", sc, pol, c.UtilizationMean)
			}
			if c.JainFairness <= 0 || c.JainFairness > 1 {
				t.Fatalf("%s/%s fairness %v out of range", sc, pol, c.JainFairness)
			}
			if c.ColdStartExposure < 0 || c.ColdStartExposure > 1 {
				t.Fatalf("%s/%s cold-start exposure %v out of range", sc, pol, c.ColdStartExposure)
			}
			low = math.Min(low, c.ColdStartExposure)
			high = math.Max(high, c.ColdStartExposure)
		}
		if high-low > 0.01 {
			coldSpread = true
		}
	}
	if !coldSpread {
		t.Fatal("no scenario separated any two policies on cold-start exposure")
	}
}
