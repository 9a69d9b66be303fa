package utilization

import (
	"math"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/sim"
)

// TestControllerResponseTable runs the additive control law against
// fixed utilization readings and checks S after a known number of
// ticks: S' = clamp(S + gain·(Target − util), 0, maxScale), starting
// from S = 1. A clamped S must equal its bound exactly.
func TestControllerResponseTable(t *testing.T) {
	cases := []struct {
		name           string
		gain, maxScale float64
		util           float64
		ticks          int
		wantS          float64
	}{
		{
			name: "at target holds steady",
			gain: 4, maxScale: 8,
			util: 0.8, ticks: 5, wantS: 1,
		},
		{
			name: "one tick under target steps up by gain*error",
			gain: 4, maxScale: 8,
			util: 0.7, ticks: 1, wantS: 1 + 4*0.1,
		},
		{
			name: "one tick over target steps down",
			gain: 4, maxScale: 8,
			util: 0.9, ticks: 1, wantS: 1 - 4*0.1,
		},
		{
			name: "overload clamps at zero",
			gain: 4, maxScale: 8,
			util: 1.0, ticks: 10, wantS: 0,
		},
		{
			name: "underutilized fleet rises to the default max scale",
			gain: Gain, maxScale: maxScale,
			util: 0.3, ticks: 10, wantS: maxScale,
		},
		{
			name: "idle fleet clamps at max scale",
			gain: 4, maxScale: 3,
			util: 0.0, ticks: 10, wantS: 3,
		},
		{
			name: "zero gain never moves",
			gain: 0, maxScale: 8,
			util: 0.0, ticks: 10, wantS: 1,
		},
		{
			name: "linear accumulation below clamp",
			gain: 1, maxScale: 8,
			util: 0.6, ticks: 3, wantS: 1 + 3*0.2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			store := config.NewStore(e)
			c := New(e, Params{Target: 0.8}, store, func() float64 { return tc.util })
			c.gain, c.maxScale = tc.gain, tc.maxScale
			e.RunFor(time.Duration(tc.ticks) * Interval)
			if math.Abs(c.S()-tc.wantS) > 1e-9 {
				t.Fatalf("S after %d ticks = %v, want %v", tc.ticks, c.S(), tc.wantS)
			}
			// A clamped S sits exactly on its bound.
			if (tc.wantS == 0 || tc.wantS == tc.maxScale) && c.S() != tc.wantS {
				t.Fatalf("clamped S = %v, want exactly %v", c.S(), tc.wantS)
			}
			if got := int(c.Adjustments.Value()); got != tc.ticks {
				t.Fatalf("adjustments = %d, want %d", got, tc.ticks)
			}
			// The published value always matches the controller state.
			if v, ok := config.NewCache(store, ScaleKey).Get(); !ok || v.(float64) != c.S() {
				t.Fatalf("store has %v, controller has %v", v, c.S())
			}
		})
	}
}
