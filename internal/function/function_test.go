package function

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/isolation"
	"xfaas/internal/sim"
)

func validSpec(name string) *Spec {
	return &Spec{
		Name:      name,
		Namespace: "php-main",
		Runtime:   "php",
		Team:      "infra",
		Deadline:  time.Minute,
		Retry:     DefaultRetry,
		Zone:      isolation.NewZone(isolation.Internal),
	}
}

func TestValidate(t *testing.T) {
	if err := validSpec("f").Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Name = "" }, "empty name"},
		{func(s *Spec) { s.Namespace = "" }, "empty namespace"},
		{func(s *Spec) { s.Deadline = 0 }, "non-positive deadline"},
		{func(s *Spec) { s.Deadline = 25 * time.Hour }, "deadline above 24h"},
		{func(s *Spec) { s.QuotaMIPS = -1 }, "negative quota"},
		{func(s *Spec) { s.ConcurrencyLimit = -1 }, "negative concurrency"},
		{func(s *Spec) { s.Retry.MaxAttempts = 0 }, "MaxAttempts"},
	}
	for _, c := range cases {
		s := validSpec("f")
		c.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("want error containing %q, got %v", c.want, err)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(validSpec("b"))
	r.MustRegister(validSpec("a"))
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	names := r.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("Get(a) failed")
	}
	if _, ok := r.Get("zzz"); ok {
		t.Fatal("Get of missing function succeeded")
	}
	// Re-registering replaces without duplicating.
	updated := validSpec("a")
	updated.Team = "newteam"
	r.MustRegister(updated)
	if r.Len() != 2 {
		t.Fatalf("len after re-register = %d", r.Len())
	}
	got, _ := r.Get("a")
	if got.Team != "newteam" {
		t.Fatal("re-register did not replace spec")
	}
	if err := r.Register(&Spec{}); err == nil {
		t.Fatal("invalid spec registered")
	}
	all := r.All()
	if len(all) != 2 || all[0].Name != "a" {
		t.Fatalf("All = %v", all)
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister of invalid spec did not panic")
		}
	}()
	NewRegistry().MustRegister(&Spec{})
}

func TestCallExpired(t *testing.T) {
	c := &Call{Deadline: time.Minute}
	if c.Expired(30 * time.Second) {
		t.Fatal("not yet expired")
	}
	if !c.Expired(2 * time.Minute) {
		t.Fatal("should be expired")
	}
	noDeadline := &Call{}
	if noDeadline.Expired(time.Hour) {
		t.Fatal("zero deadline should never expire")
	}
}

func TestCallExpiry(t *testing.T) {
	cases := []struct {
		name      string
		deadline  sim.Time
		now       sim.Time
		expired   bool
		remaining time.Duration
	}{
		{name: "no deadline never expires", deadline: 0, now: 1000 * time.Hour, expired: false, remaining: -1},
		{name: "well before deadline", deadline: time.Hour, now: time.Minute, expired: false, remaining: 59 * time.Minute},
		{name: "one tick before deadline", deadline: time.Hour, now: time.Hour - 1, expired: false, remaining: 1},
		{name: "exactly at deadline is live", deadline: time.Hour, now: time.Hour, expired: false, remaining: 0},
		{name: "one tick past deadline", deadline: time.Hour, now: time.Hour + 1, expired: true, remaining: 0},
		{name: "long past deadline", deadline: time.Second, now: 24 * time.Hour, expired: true, remaining: 0},
		{name: "at time zero with deadline", deadline: time.Second, now: 0, expired: false, remaining: time.Second},
		{name: "negative deadline treated as none", deadline: -time.Second, now: time.Hour, expired: false, remaining: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Call{Deadline: tc.deadline}
			if got := c.Expired(tc.now); got != tc.expired {
				t.Errorf("Expired(%v) = %v, want %v", tc.now, got, tc.expired)
			}
			got := c.Remaining(tc.now)
			if tc.remaining < 0 {
				if got >= 0 {
					t.Errorf("Remaining(%v) = %v, want negative (unbounded)", tc.now, got)
				}
			} else if got != tc.remaining {
				t.Errorf("Remaining(%v) = %v, want %v", tc.now, got, tc.remaining)
			}
		})
	}
}

func TestStringers(t *testing.T) {
	if TriggerQueue.String() != "queue" || TriggerEvent.String() != "event" || TriggerTimer.String() != "timer" {
		t.Fatal("trigger strings wrong")
	}
	if CritLow.String() != "low" || CritHigh.String() != "high" {
		t.Fatal("criticality strings wrong")
	}
	if QuotaReserved.String() != "reserved" || QuotaOpportunistic.String() != "opportunistic" {
		t.Fatal("quota strings wrong")
	}
	if StateQueued.String() != "queued" || StateFailed.String() != "failed" {
		t.Fatal("state strings wrong")
	}
}

func TestCriticalityOrdering(t *testing.T) {
	if !(CritLow < CritNormal && CritNormal < CritHigh) {
		t.Fatal("criticality ordering must be low < normal < high")
	}
}

// TestCurrentFollowsReregistration: every spec ever registered under a
// name leads to the one registered last, also when an old spec comes
// back, and re-registering the current spec changes nothing.
func TestCurrentFollowsReregistration(t *testing.T) {
	r := NewRegistry()
	spec := func(quota float64) *Spec {
		return &Spec{Name: "f", Namespace: "main", Deadline: time.Minute, QuotaMIPS: quota, Retry: DefaultRetry}
	}
	a, b := spec(1), spec(2)
	var seen []*Spec
	for i, reg := range []*Spec{a, a, b, a, b} {
		r.MustRegister(reg)
		seen = append(seen, reg)
		for _, s := range seen {
			if s.Current() != reg {
				t.Fatalf("step %d: Current of quota %v is quota %v, want %v", i, s.QuotaMIPS, s.Current().QuotaMIPS, reg.QuotaMIPS)
			}
		}
	}
}
