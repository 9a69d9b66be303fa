// Command xfaas-bench runs the scheduling-policy × overload-scenario
// matrix and writes it as JSON. Performance measurement (throughput,
// allocations, observer overhead, parallel speedup, per-layer drivers)
// lives in the repository benchmark: `bash benchmark/run.sh`.
//
// Usage:
//
//	xfaas-bench -policy-matrix [-seed N] [-out POLICY_MATRIX.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xfaas/internal/experiment"
)

func main() {
	var (
		matrix = flag.Bool("policy-matrix", false, "run the scheduling-policy × overload-scenario matrix; writes POLICY_MATRIX.json (or -out)")
		out    = flag.String("out", "", "output path (default POLICY_MATRIX.json)")
		seed   = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if !*matrix {
		fmt.Fprintln(os.Stderr, "xfaas-bench: nothing to do without -policy-matrix; performance numbers come from `bash benchmark/run.sh`")
		os.Exit(2)
	}
	runPolicyMatrix(*seed, *out)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xfaas-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runPolicyMatrix runs every scheduling policy through every adversarial
// overload scenario and writes the table as JSON. The document is a pure
// function of the seed — no date field — so CI can run it twice and
// byte-diff the outputs as a determinism gate.
func runPolicyMatrix(seed uint64, out string) {
	m := experiment.RunPolicyMatrix(seed)
	fmt.Printf("%-14s %-8s %6s %10s %6s %8s %8s %6s\n",
		"scenario", "policy", "util", "p99(s)", "cold", "shed", "expired", "jain")
	for _, c := range m.Cells {
		fmt.Printf("%-14s %-8s %6.2f %10.1f %6.3f %8.0f %8.0f %6.3f\n",
			c.Scenario, c.Policy, c.UtilizationMean, c.P99E2ESeconds,
			c.ColdStartExposure, c.ShedCalls, c.ExpiredCalls, c.JainFairness)
	}
	if out == "" {
		out = "POLICY_MATRIX.json"
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal("write %s: %v", out, err)
	}
	fmt.Printf("wrote %s\n", out)
}
