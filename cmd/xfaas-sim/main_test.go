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

// TestRejectsBadFlags: a value no run can use, or a flag the selected mode
// never reads, is a usage error (exit 2) before anything runs, and its
// message names the culprit; it is not a silent empty run or an option
// dropped in silence.
func TestRejectsBadFlags(t *testing.T) {
	m := filepath.Join(t.TempDir(), "m.json")
	for _, tc := range []struct {
		args []string
		name string
	}{
		{[]string{"-parallel", "2", "-minutes", "-5"}, "-minutes"},
		{[]string{"-parallel", "2", "-minutes", "0"}, "-minutes"},
		{[]string{"-parallel", "2", "-minutes", "200000000"}, "-minutes"},
		{[]string{"-parallel", "-1"}, "-parallel"},
		{[]string{"-chaos", "fig2"}, "fig2"},
		{[]string{"-chaos", "chaos_gray"}, "chaos_gray"},
		{[]string{"-chaos", "nosuch"}, "nosuch"},
		{[]string{"-parallel", "4", "-policy", "pull"}, "-policy"},
		{[]string{"-parallel", "4", "-full"}, "-full"},
		{[]string{"-seq"}, "-seq"},
		{[]string{"-pchaos", "-run", "fig3"}, "-pchaos"},
		{[]string{"-pdrain", "-chaos", "gray"}, "-pdrain"},
		{[]string{"-traced", "-run", "fig3"}, "-traced"},
		{[]string{"-minutes", "5", "-run", "fig3"}, "-minutes"},
		{[]string{"-chaos", "gray", "-run", "fig3"}, "-run"},
		{[]string{"-policy-matrix", m, "-policy", "pull"}, "-policy"},
		{[]string{"-policy-matrix", m, "-invariants"}, "-invariants"},
		{[]string{"-policy-matrix", m, "-slo"}, "-slo"},
		{[]string{"-policy-matrix", m, "-full"}, "-full"},
		{[]string{"-policy-matrix", m, "-run", "fig3"}, "-run"},
		{[]string{"-policy-matrix", m, "-chaos", "gray"}, "-chaos"},
		{[]string{"-list", "-seed", "7"}, "-seed"},
	} {
		flag.CommandLine = flag.NewFlagSet("xfaas-sim", flag.ContinueOnError)
		os.Args = append([]string{"xfaas-sim"}, tc.args...)
		stderr := os.Stderr
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = f
		code := run()
		os.Stderr = stderr
		msg, _ := os.ReadFile(f.Name())
		f.Close()
		if code != 2 || !strings.Contains(string(msg), tc.name) {
			t.Errorf("xfaas-sim %v: exit %d, stderr %q; want exit 2 naming %s", tc.args, code, msg, tc.name)
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

// TestListAlignsTitles: every experiment line of -list starts its title
// at one column, however long the longest id is.
func TestListAlignsTitles(t *testing.T) {
	flag.CommandLine = flag.NewFlagSet("xfaas-sim", flag.ContinueOnError)
	os.Args = []string{"xfaas-sim", "-list"}
	stdout := os.Stdout
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	code := run()
	os.Stdout = stdout
	out, _ := os.ReadFile(f.Name())
	f.Close()
	if code != 0 {
		t.Fatalf("xfaas-sim -list: exit %d", code)
	}
	lines := strings.Split(string(out), "\n")
	col := -1
	for i, e := range experiment.All() {
		line := lines[1+i]
		head, ok := strings.CutSuffix(line, " "+e.Title)
		if !ok || strings.TrimRight(head, " ") != "  "+e.ID {
			t.Fatalf("-list line %d = %q, want %s and its title %q", 1+i, line, e.ID, e.Title)
		}
		if col < 0 {
			col = len(head)
		}
		if len(head) != col {
			t.Errorf("-list: %s's title starts at column %d, the first experiment's at %d", e.ID, len(head)+1, col+1)
		}
	}
}
