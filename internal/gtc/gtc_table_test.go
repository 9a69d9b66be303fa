package gtc

import (
	"testing"
)

// TestComputeTable drives the waterfall through named demand/supply
// scenarios and asserts structural properties of the resulting matrix:
// which off-diagonal entries must be positive (cross-region pulls) or
// zero, and exact values where the algebra pins them down.
func TestComputeTable(t *testing.T) {
	cases := []struct {
		name    string
		regions int
		demand  []float64
		supply  []float64
		// wantPositive/wantZero list [i,j] entries that must be >0 / ==0.
		wantPositive [][2]int
		wantZero     [][2]int
		// wantExact pins specific entries exactly.
		wantExact map[[2]int]float64
	}{
		{
			name:    "balanced stays local",
			regions: 3,
			demand:  []float64{10, 10, 10},
			supply:  []float64{100, 100, 100},
			wantExact: map[[2]int]float64{
				{0, 0}: 1, {1, 1}: 1, {2, 2}: 1,
			},
		},
		{
			name:         "single hot region sheds to nearest only",
			regions:      3,
			demand:       []float64{200, 0, 0},
			supply:       []float64{100, 100, 100},
			wantPositive: [][2]int{{1, 0}},
			wantZero:     [][2]int{{2, 0}},
			wantExact:    map[[2]int]float64{{0, 0}: 1},
		},
		{
			name:         "excess spills past the nearest neighbour",
			regions:      3,
			demand:       []float64{350, 0, 0},
			supply:       []float64{100, 100, 100},
			wantPositive: [][2]int{{1, 0}, {2, 0}},
		},
		{
			name:         "two hot regions shed independently",
			regions:      4,
			demand:       []float64{200, 0, 0, 200},
			supply:       []float64{100, 100, 100, 100},
			wantPositive: [][2]int{{1, 0}, {2, 3}},
			wantZero:     [][2]int{{1, 3}, {2, 0}},
		},
		{
			name:      "global overload equalizes ratios",
			regions:   2,
			demand:    []float64{400, 0},
			supply:    []float64{100, 100},
			wantExact: map[[2]int]float64{{1, 0}: 1},
		},
		{
			name:         "zero supply region sheds everything",
			regions:      2,
			demand:       []float64{100, 0},
			supply:       []float64{0, 200},
			wantPositive: [][2]int{{1, 0}},
		},
		{
			name:      "zero total demand is identity",
			regions:   2,
			demand:    []float64{0, 0},
			supply:    []float64{100, 100},
			wantExact: map[[2]int]float64{{0, 0}: 1, {1, 1}: 1},
		},
		{
			name:      "zero total demand is identity over four regions",
			regions:   4,
			demand:    []float64{0, 0, 0, 0},
			supply:    []float64{1, 1, 1, 1},
			wantExact: map[[2]int]float64{{0, 0}: 1, {1, 1}: 1, {2, 2}: 1, {3, 3}: 1},
		},
		{
			name:      "zero total supply is identity",
			regions:   2,
			demand:    []float64{50, 50},
			supply:    []float64{0, 0},
			wantExact: map[[2]int]float64{{0, 0}: 1, {1, 1}: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := lineTopo(tc.regions)
			m := Compute(topo, Snapshot{Demand: tc.demand, Supply: tc.supply})
			if !m.Validate(tc.regions) {
				t.Fatalf("matrix not row-stochastic: %v", m)
			}
			for _, ij := range tc.wantPositive {
				if m[ij[0]][ij[1]] <= 0 {
					t.Errorf("m[%d][%d] = %v, want > 0\nmatrix: %v", ij[0], ij[1], m[ij[0]][ij[1]], m)
				}
			}
			for _, ij := range tc.wantZero {
				if m[ij[0]][ij[1]] != 0 {
					t.Errorf("m[%d][%d] = %v, want 0\nmatrix: %v", ij[0], ij[1], m[ij[0]][ij[1]], m)
				}
			}
			for ij, want := range tc.wantExact {
				if m[ij[0]][ij[1]] != want {
					t.Errorf("m[%d][%d] = %v, want %v\nmatrix: %v", ij[0], ij[1], m[ij[0]][ij[1]], want, m)
				}
			}
		})
	}
}

// TestValidateTable exercises the row-stochasticity checks case by case.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name string
		m    Matrix
		n    int
		want bool
	}{
		{"identity", Identity(2), 2, true},
		{"uniform", Matrix{{0.5, 0.5}, {0.5, 0.5}}, 2, true},
		{"sum within tolerance", Matrix{{0.9999995, 0}, {0, 1}}, 2, true},
		{"too few rows", Matrix{{0.5, 0.5}}, 2, false},
		{"short row", Matrix{{1, 0, 0}, {0, 1, 0}}, 2, false},
		{"row sums below one", Matrix{{0.5, 0.4}, {1, 0}}, 2, false},
		{"row sums above one", Matrix{{0.5, 0.6}, {1, 0}}, 2, false},
		{"negative entry", Matrix{{1.5, -0.5}, {0, 1}}, 2, false},
		{"empty vs zero", Matrix{}, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.m.Validate(tc.n); got != tc.want {
				t.Fatalf("Validate(%d) = %v, want %v", tc.n, got, tc.want)
			}
		})
	}
}
