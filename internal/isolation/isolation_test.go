package isolation

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestDominatedByLevels(t *testing.T) {
	pub := NewZone(Public)
	conf := NewZone(Confidential)
	if !pub.DominatedBy(conf) {
		t.Fatal("public should flow to confidential")
	}
	if conf.DominatedBy(pub) {
		t.Fatal("confidential must not flow to public")
	}
	if !pub.DominatedBy(pub) {
		t.Fatal("dominance must be reflexive")
	}
}

func TestDominatedByCompartments(t *testing.T) {
	a := NewZone(Internal, "ads")
	b := NewZone(Internal, "ads", "growth")
	c := NewZone(Internal, "growth")
	if !a.DominatedBy(b) {
		t.Fatal("subset compartments should dominate")
	}
	if a.DominatedBy(c) {
		t.Fatal("disjoint compartments must not flow")
	}
	if b.DominatedBy(a) {
		t.Fatal("superset must not flow to subset")
	}
}

func TestCheckerArgFlow(t *testing.T) {
	var ck Checker
	src := NewZone(Public)
	exec := NewZone(Internal)
	if err := ck.CheckArgFlow(src, exec); err != nil {
		t.Fatalf("legal flow rejected: %v", err)
	}
	err := ck.CheckArgFlow(exec, src)
	if err == nil {
		t.Fatal("illegal flow allowed")
	}
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("error type = %T", err)
	}
	if ck.Allowed != 1 || ck.Denied != 1 {
		t.Fatalf("counters = %d/%d", ck.Allowed, ck.Denied)
	}
}

func TestNoReadUpNoWriteDown(t *testing.T) {
	var ck Checker
	low := NewZone(Public)
	high := NewZone(Restricted)
	// A low subject must not read high data.
	if err := ck.CheckRead(low, high); err == nil {
		t.Fatal("read up allowed")
	}
	// A high subject may read low data.
	if err := ck.CheckRead(high, low); err != nil {
		t.Fatalf("read down rejected: %v", err)
	}
	// A high subject must not write low data.
	if err := ck.CheckWrite(high, low); err == nil {
		t.Fatal("write down allowed")
	}
	// A low subject may write high data (blind write-up is legal BLP).
	if err := ck.CheckWrite(low, high); err != nil {
		t.Fatalf("write up rejected: %v", err)
	}
}

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
