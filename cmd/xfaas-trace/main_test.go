package main

import (
	"flag"
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
