package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xfaas/internal/experiment"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	res := &experiment.Result{ID: "demo"}
	res.Series = append(res.Series, experiment.NamedSeries{
		Name:   "calls per minute (smoothed)",
		Step:   time.Minute,
		Values: []float64{1, 2, 3},
	})
	if err := writeCSV(dir, res); err != nil {
		t.Fatalf("writeCSV: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "demo_") || !strings.HasSuffix(name, ".csv") {
		t.Fatalf("file name = %q", name)
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || lines[0] != "t_seconds,value" {
		t.Fatalf("csv content:\n%s", data)
	}
	if lines[2] != "60,2" {
		t.Fatalf("row = %q", lines[2])
	}
}

// TestWriteSeriesReportsWriteErrors: a series that cannot be written in
// full (here to a device that is always full) is an error, not a short
// file.
func TestWriteSeriesReportsWriteErrors(t *testing.T) {
	s := experiment.NamedSeries{Name: "calls", Step: time.Minute, Values: []float64{1, 2, 3}}
	if err := writeSeries("/dev/full", s); err == nil {
		t.Fatal("writing to /dev/full reported no error")
	}
}

func TestWriteCSVSanitizesNames(t *testing.T) {
	dir := t.TempDir()
	res := &experiment.Result{ID: "x"}
	res.Series = append(res.Series, experiment.NamedSeries{
		Name:   "weird/name: 100% (per region)",
		Step:   time.Second,
		Values: []float64{1},
	})
	if err := writeCSV(dir, res); err != nil {
		t.Fatalf("writeCSV: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if strings.ContainsAny(entries[0].Name(), "/:% ()") {
		t.Fatalf("unsanitized name %q", entries[0].Name())
	}
}

func TestStartProfilesWritesBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatalf("startProfiles: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, want a non-empty profile", path, err)
		}
	}
	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("a CPU profile in a directory that does not exist started without error")
	}
	if stop, err = startProfiles("", ""); err != nil || stop() != nil {
		t.Fatalf("no profiles asked for: %v", err)
	}
}

// TestRejectsBadFlags: a value no run can use is a usage error (exit 2)
// before anything runs, not a silent empty run.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "2", "-minutes", "-5"},
		{"-parallel", "2", "-minutes", "0"},
		{"-parallel", "-1"},
		{"-chaos", "fig2"},
		{"-chaos", "chaos_gray"},
		{"-chaos", "nosuch"},
	} {
		flag.CommandLine = flag.NewFlagSet("xfaas-sim", flag.ContinueOnError)
		os.Args = append([]string{"xfaas-sim"}, args...)
		if code := run(); code != 2 {
			t.Errorf("xfaas-sim %v: exit %d, want 2", args, code)
		}
	}
}

// TestChaosScenarioNames: -chaos resolves each scenario name to the
// experiment with that name after its chaos_ or drill_ prefix.
func TestChaosScenarioNames(t *testing.T) {
	want := map[string]string{
		"gray": "chaos_gray", "graytail": "chaos_graytail", "flapping": "chaos_flapping",
		"evacuation": "drill_evacuation", "partition": "chaos_partition",
		"correlated": "chaos_correlated", "dq": "chaos_dq", "shardcrash": "chaos_shardcrash",
		"submittercrash": "chaos_submittercrash", "schedcrash": "chaos_schedcrash",
		"retrystorm": "chaos_retrystorm", "midnightspike": "chaos_midnightspike",
		"spikyclient": "chaos_spikyclient", "zipfneighbor": "chaos_zipfneighbor",
	}
	if names := chaosNames(); len(names) != len(want) {
		t.Errorf("chaosNames() = %v, want the %d scenarios", names, len(want))
	}
	for name, id := range want {
		if e, ok := chaosScenario(name); !ok || e.ID != id {
			t.Errorf("-chaos %s: found %v (ok=%v), want %s", name, e, ok, id)
		}
	}
}
