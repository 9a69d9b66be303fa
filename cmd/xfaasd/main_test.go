package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		regions, workers int
		speedup          float64
		ok               bool
	}{
		{3, 12, 1, true},
		{1, 1, 0.5, true},
		{0, 12, 1, false},
		{3, 0, 1, false},
		{3, 2, 1, false},
		{3, 12, 0, false},
		{3, 12, -60, false},
		{3, 12, math.NaN(), false},
	} {
		if err := checkFlags(c.regions, c.workers, c.speedup); (err == nil) != c.ok {
			t.Errorf("checkFlags(%d, %d, %g) = %v, want ok=%v", c.regions, c.workers, c.speedup, err, c.ok)
		}
	}
}
