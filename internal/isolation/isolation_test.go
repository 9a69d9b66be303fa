package isolation

import (
	"testing"
	"testing/quick"
)

func zoneFrom(level uint8, comps uint8) Zone {
	var names []string
	all := []string{"a", "b", "c"}
	for i, n := range all {
		if comps&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return NewZone(Level(level%4), names...)
}

// Property: dominance is a partial order (reflexive, antisymmetric up to
// equivalence, transitive).
func TestLatticeProperties(t *testing.T) {
	f := func(l1, c1, l2, c2, l3, c3 uint8) bool {
		x := zoneFrom(l1, c1)
		y := zoneFrom(l2, c2)
		z := zoneFrom(l3, c3)
		if !x.DominatedBy(x) {
			return false
		}
		return !x.DominatedBy(y) || !y.DominatedBy(z) || x.DominatedBy(z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: flows compose — if a→b and b→c are allowed, a→c is allowed,
// i.e. chained RPC label propagation cannot launder data downward.
func TestFlowComposition(t *testing.T) {
	f := func(l1, c1, l2, c2, l3, c3 uint8) bool {
		a := zoneFrom(l1, c1)
		b := zoneFrom(l2, c2)
		c := zoneFrom(l3, c3)
		if a.DominatedBy(b) && b.DominatedBy(c) {
			return a.DominatedBy(c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestZoneString(t *testing.T) {
	z := NewZone(Confidential, "b", "a")
	if z.String() != "confidential{a,b}" {
		t.Fatalf("String = %q", z.String())
	}
	if NewZone(Public).String() != "public" {
		t.Fatalf("String = %q", NewZone(Public).String())
	}
}
