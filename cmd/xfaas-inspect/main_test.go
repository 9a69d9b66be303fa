package main

import (
	"math"
	"slices"
	"testing"

	"xfaas/internal/chaos"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		minutes, funcs int
		rps            float64
		sample         uint64
		top, events    int
		ok             bool
	}{
		{30, 40, 10, 1, 5, 40, true},
		{1, 1, 0.1, 16, 0, 0, true},
		{0, 40, 10, 1, 5, 40, false},
		{30, 0, 10, 1, 5, 40, false},
		{30, 40, 0, 1, 5, 40, false},
		{30, 40, math.NaN(), 1, 5, 40, false},
		{30, 40, 10, 0, 5, 40, false},
		{30, 40, 10, 1, -1, 40, false},
		{30, 40, 10, 1, 5, -1, false},
		{200000000, 40, 10, 1, 5, 40, false},
	} {
		if err := checkFlags(c.minutes, c.funcs, c.rps, c.sample, c.top, c.events); (err == nil) != c.ok {
			t.Errorf("checkFlags(%+v) = %v, want ok=%v", c, err, c.ok)
		}
	}
}

// TestListNames pins what -list prints: the scenario names, in order.
func TestListNames(t *testing.T) {
	want := []string{"gray", "graytail", "flapping", "evacuation", "partition", "correlated",
		"dq", "shardcrash", "submittercrash", "schedcrash", "retrystorm"}
	var got []string
	for _, sc := range chaos.Scenarios {
		got = append(got, sc.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("-list names = %v, want %v", got, want)
	}
}
