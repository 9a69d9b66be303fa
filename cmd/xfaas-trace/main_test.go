package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runWith runs the command with args on a fresh flag set.
func runWith(args ...string) int {
	flag.CommandLine = flag.NewFlagSet("xfaas-trace", flag.ContinueOnError)
	os.Args = append([]string{"xfaas-trace"}, args...)
	return run()
}

// TestCSVWriteErrorFails: a CSV that cannot be written in full (here a
// device that is always full) is exit 1, not a "Wrote" line and exit 0.
func TestCSVWriteErrorFails(t *testing.T) {
	if code := runWith("-hours", "1", "-draws", "100", "-csv", "/dev/full"); code != 1 {
		t.Fatalf("exit %d writing to /dev/full, want 1", code)
	}
}

func TestCSVWritesEveryMinute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.csv")
	if code := runWith("-hours", "1", "-draws", "100", "-csv", path); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "minute,calls" || len(lines) != 62 {
		t.Fatalf("csv has %d lines starting %q, want a header and 61 rows", len(lines), lines[0])
	}
}

// TestCheckFlags: a flag value no trace can use is one line and exit 2,
// not a stack trace from the population builder or a chart of -1 hours.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		functions   int
		rps         float64
		hours, draw int
		ok          bool
	}{
		{240, 60, 24, 20000, true},
		{1, 0.5, 1, 0, true},
		{0, 60, 24, 100, false},
		{240, -1, 24, 100, false},
		{240, 0, 24, 100, false},
		{240, math.NaN(), 24, 100, false},
		{240, 60, -1, 100, false},
		{240, 60, 0, 100, false},
		{240, 60, 24, -1, false},
		{240, 60, 3000000, 100, false},
	} {
		if err := checkFlags(c.functions, c.rps, c.hours, c.draw); (err == nil) != c.ok {
			t.Errorf("checkFlags(%d, %g, %d, %d) = %v, want ok=%v", c.functions, c.rps, c.hours, c.draw, err, c.ok)
		}
	}
	for _, args := range [][]string{{"-functions", "0"}, {"-rps", "-1"}, {"-hours", "-1"}, {"-hours", "3000000"}} {
		if code := runWith(args...); code != 2 {
			t.Errorf("xfaas-trace %v: exit %d, want 2", args, code)
		}
	}
}
