package experiment

import (
	"reflect"
	"testing"

	"xfaas/internal/baseline"
	"xfaas/internal/core"
	"xfaas/internal/psim"
	"xfaas/internal/workload"
)

// settableLeaves counts the exported leaves under t: a struct-typed field
// is descended into, every other exported field is one leaf.
func settableLeaves(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case !f.IsExported():
		case f.Type.Kind() == reflect.Struct:
			n += settableLeaves(f.Type)
		default:
			n++
		}
	}
	return n
}

// TestConfigurationSurface pins the number of independently settable
// configuration values. Every leaf multiplies what scenario files, the
// fault-space explorer and seed × scale sweeps have to cover, so the count
// only moves on purpose.
func TestConfigurationSurface(t *testing.T) {
	roots := []struct {
		name string
		v    any
		want int
	}{
		{"core.DefaultConfig", core.DefaultConfig(), 41},
		{"psim.DefaultOptions", psim.DefaultOptions(), 15},
		{"workload.DefaultPopulationConfig", workload.DefaultPopulationConfig(), 12},
		{"workload.DefaultStormMix", workload.DefaultStormMix(""), 5},
		{"workload.DefaultGrayMix", workload.DefaultGrayMix(), 2},
		{"baseline.DefaultParams", baseline.DefaultParams(), 3},
	}
	total := 0
	for _, r := range roots {
		got := settableLeaves(reflect.TypeOf(r.v))
		total += got
		if got != r.want {
			t.Errorf("%s: %d settable leaves, pinned at %d: a new knob needs two non-test callers "+
				"that set it differently; a value with one setting in use belongs in a typed "+
				"constant in the package that reads it", r.name, got, r.want)
		}
	}
	t.Logf("configuration surface: %d settable leaves", total)
}
