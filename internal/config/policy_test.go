package config

import "testing"

func TestDefaultPolicyValidatesAndIsPush(t *testing.T) {
	if got := PolicyNames()[0]; got != PolicyPush {
		t.Fatalf("first shipped policy %q, want push", got)
	}
	if err := CheckPolicy(PolicyPush); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	// The empty name is also legal and means push: zero-value scheduler
	// Params must keep working.
	if err := CheckPolicy(""); err != nil {
		t.Fatalf("empty policy name invalid: %v", err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		if err := CheckPolicy(name); err != nil {
			t.Errorf("CheckPolicy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "Push", " push"} {
		if err := CheckPolicy(name); err == nil {
			t.Errorf("CheckPolicy(%q) accepted an unknown name", name)
		}
	}
}
