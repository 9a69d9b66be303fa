package isolation

import (
	"errors"
	"testing"
)

func TestLevelStringTable(t *testing.T) {
	cases := []struct {
		level Level
		want  string
	}{
		{Public, "public"},
		{Internal, "internal"},
		{Confidential, "confidential"},
		{Restricted, "restricted"},
		{Level(9), "level(9)"},
		{Level(-1), "level(-1)"},
	}
	for _, tc := range cases {
		if got := tc.level.String(); got != tc.want {
			t.Errorf("Level(%d).String() = %q, want %q", int(tc.level), got, tc.want)
		}
	}
}

func TestDominatedByTable(t *testing.T) {
	cases := []struct {
		name     string
		from, to Zone
		want     bool
	}{
		{"equal levels no compartments", NewZone(Internal), NewZone(Internal), true},
		{"lower to higher", NewZone(Public), NewZone(Restricted), true},
		{"higher to lower", NewZone(Restricted), NewZone(Public), false},
		{"subset compartments", NewZone(Internal, "ads"), NewZone(Internal, "ads", "growth"), true},
		{"superset compartments", NewZone(Internal, "ads", "growth"), NewZone(Internal, "ads"), false},
		{"disjoint compartments", NewZone(Internal, "ads"), NewZone(Internal, "growth"), false},
		{"level up does not excuse compartments", NewZone(Public, "ads"), NewZone(Restricted), false},
		{"no compartments flows anywhere level allows", NewZone(Public), NewZone(Public, "ads"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.from.DominatedBy(tc.to); got != tc.want {
				t.Fatalf("%s.DominatedBy(%s) = %v, want %v", tc.from, tc.to, got, tc.want)
			}
		})
	}
}

func TestCheckerOpsTable(t *testing.T) {
	low := NewZone(Internal)
	high := NewZone(Confidential)
	cases := []struct {
		name    string
		op      func(ck *Checker) error
		allowed bool
		wantMsg string
	}{
		{"arg flow up", func(ck *Checker) error { return ck.CheckArgFlow(low, high) }, true, ""},
		{"arg flow down", func(ck *Checker) error { return ck.CheckArgFlow(high, low) }, false,
			"isolation: argument flow from confidential to internal violates Bell-LaPadula"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ck Checker
			err := tc.op(&ck)
			if tc.allowed {
				if err != nil {
					t.Fatalf("legal flow rejected: %v", err)
				}
				if ck.Allowed != 1 || ck.Denied != 0 {
					t.Fatalf("counters = %d/%d, want 1/0", ck.Allowed, ck.Denied)
				}
				return
			}
			if err == nil {
				t.Fatal("illegal flow allowed")
			}
			var fe *FlowError
			if !errors.As(err, &fe) {
				t.Fatalf("error type = %T", err)
			}
			if err.Error() != tc.wantMsg {
				t.Fatalf("error = %q, want %q", err.Error(), tc.wantMsg)
			}
			if ck.Allowed != 0 || ck.Denied != 1 {
				t.Fatalf("counters = %d/%d, want 0/1", ck.Allowed, ck.Denied)
			}
		})
	}
}
