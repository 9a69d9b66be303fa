package durableq

import (
	"slices"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

// callDL builds a call with an explicit absolute deadline.
func callDL(s *function.Spec, deadline sim.Time) *function.Call {
	c := call(s, 0)
	c.Deadline = deadline
	return c
}

func TestPollSweepsExpired(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.SweepExpired = true
	s := spec("f", 3)
	doomed := callDL(s, 1*time.Second)
	live := callDL(s, time.Hour)
	sh.Enqueue(doomed)
	sh.Enqueue(live)
	e.RunFor(2 * time.Second)
	// The expired head must be swept, not offered — and it must not hide
	// the live call queued behind it.
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != live.ID {
		t.Fatalf("poll = %v, want only the live call", got)
	}
	if doomed.State != function.StateFailed {
		t.Fatalf("doomed state = %v", doomed.State)
	}
	if sh.DeadExpired.Value() != 1 || sh.DeadLetters.Value() != 1 {
		t.Fatalf("dead counters: expired=%v total=%v", sh.DeadExpired.Value(), sh.DeadLetters.Value())
	}
	if sh.Pending() != 0 {
		t.Fatalf("pending = %d", sh.Pending())
	}
}

func TestDeadlineExactlyNowIsLive(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.SweepExpired = true
	c := callDL(spec("f", 3), 5*time.Second)
	sh.Enqueue(c)
	e.RunFor(5 * time.Second) // now == deadline: strictly-after semantics
	got := sh.Poll(10, nil)
	if len(got) != 1 {
		t.Fatalf("call with deadline == now was swept; want delivery")
	}
	if sh.DeadExpired.Value() != 0 {
		t.Fatalf("expired counter = %v", sh.DeadExpired.Value())
	}
}

func TestRetryBoundaryExpires(t *testing.T) {
	// A nack after the deadline passes must settle the call, not requeue
	// a redelivery that could never finish in time.
	e := sim.NewEngine()
	sh := newShard(e)
	sh.SweepExpired = true
	c := callDL(spec("f", 5), 5*time.Second)
	sh.Enqueue(c)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("poll failed")
	}
	e.RunFor(6 * time.Second)
	if !sh.Nack(c.ID) {
		t.Fatal("nack failed")
	}
	if c.State != function.StateFailed {
		t.Fatalf("state = %v", c.State)
	}
	if sh.Redelivered.Value() != 0 || sh.DeadExpired.Value() != 1 {
		t.Fatalf("redelivered=%v expired=%v", sh.Redelivered.Value(), sh.DeadExpired.Value())
	}
	e.RunFor(time.Hour)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatalf("expired call redelivered: %v", got)
	}
}

func TestLeaseTimeoutBoundaryExpires(t *testing.T) {
	// A lease that times out past the call's deadline sweeps it to
	// dead-letter instead of redelivering doomed work.
	e := sim.NewEngine()
	sh := newShard(e)
	sh.SweepExpired = true
	c := callDL(spec("f", 5), 10*time.Second)
	sh.Enqueue(c)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("poll failed")
	}
	e.RunFor(sh.LeaseTimeout + time.Second)
	if c.State != function.StateFailed {
		t.Fatalf("state = %v", c.State)
	}
	if sh.Redelivered.Value() != 0 || sh.DeadExpired.Value() != 1 {
		t.Fatalf("redelivered=%v expired=%v", sh.Redelivered.Value(), sh.DeadExpired.Value())
	}
	if sh.Leased() != 0 {
		t.Fatalf("leased = %d", sh.Leased())
	}
}

func TestSweepDisabledDeliversExpired(t *testing.T) {
	// With the sweep off (the default), expired calls are still offered —
	// the seed platform's behavior is unchanged.
	e := sim.NewEngine()
	sh := newShard(e)
	c := callDL(spec("f", 3), 1*time.Second)
	sh.Enqueue(c)
	e.RunFor(time.Minute)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("expired call not delivered with sweep disabled")
	}
	if sh.DeadExpired.Value() != 0 {
		t.Fatalf("expired counter = %v", sh.DeadExpired.Value())
	}
}

func TestRetryBudgetSpendAndExhaust(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.BudgetEnabled = true
	sh.BudgetRatio = 0.5
	sh.BudgetBurst = 2
	s := spec("f", 10)
	if got := sh.BudgetBalance("f"); got != 2 {
		t.Fatalf("fresh balance = %v, want the burst", got)
	}
	c := call(s, 0)
	sh.Enqueue(c)
	// Two redeliveries spend the burst; the third nack finds an empty
	// bucket and dead-letters with the budget disposition.
	for i := 0; i < 2; i++ {
		if got := sh.Poll(10, nil); len(got) != 1 {
			t.Fatalf("poll %d failed", i)
		}
		if !sh.Nack(c.ID) {
			t.Fatalf("nack %d failed", i)
		}
		e.RunFor(time.Minute) // past any backoff
	}
	if sh.Redelivered.Value() != 2 || sh.BudgetSpent.Value() != 2 {
		t.Fatalf("redelivered=%v spent=%v", sh.Redelivered.Value(), sh.BudgetSpent.Value())
	}
	if got := sh.BudgetBalance("f"); got != 0 {
		t.Fatalf("balance = %v, want 0", got)
	}
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("third delivery failed")
	}
	sh.Nack(c.ID)
	if c.State != function.StateFailed {
		t.Fatalf("state = %v", c.State)
	}
	if sh.DeadBudget.Value() != 1 || sh.Redelivered.Value() != 2 {
		t.Fatalf("budget=%v redelivered=%v", sh.DeadBudget.Value(), sh.Redelivered.Value())
	}
}

func TestRetryBudgetEarnedBySuccess(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.BudgetEnabled = true
	sh.BudgetRatio = 0.5
	sh.BudgetBurst = 0
	s := spec("f", 10)
	// No burst and nothing earned: the very first redelivery is denied.
	c1 := call(s, 0)
	sh.Enqueue(c1)
	sh.Poll(10, nil)
	sh.Nack(c1.ID)
	if sh.DeadBudget.Value() != 1 {
		t.Fatalf("budget dead-letters = %v", sh.DeadBudget.Value())
	}
	// Two first-attempt successes earn one token (β = 0.5 each)...
	for i := 0; i < 2; i++ {
		c := call(s, 0)
		sh.Enqueue(c)
		sh.Poll(10, nil)
		if !sh.Ack(c.ID) {
			t.Fatal("ack failed")
		}
	}
	if got := sh.BudgetBalance("f"); got != 1 {
		t.Fatalf("balance = %v, want 1 after two earns", got)
	}
	// ...which funds exactly one redelivery.
	c2 := call(s, 0)
	sh.Enqueue(c2)
	sh.Poll(10, nil)
	sh.Nack(c2.ID)
	if sh.Redelivered.Value() != 1 || sh.DeadBudget.Value() != 1 {
		t.Fatalf("redelivered=%v budget=%v", sh.Redelivered.Value(), sh.DeadBudget.Value())
	}
	e.RunFor(time.Minute)
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c2.ID {
		t.Fatalf("funded redelivery missing: %v", got)
	}
}

// TestRetryBudgetDrySpells: "budget.exhausted" fires once per dry spell,
// however many redeliveries the empty bucket denies, "budget.recovered"
// once the bucket holds a token again, and a bucket that runs dry again
// starts a new spell.
func TestRetryBudgetDrySpells(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.NewRecorder(e, 1, trace.DefaultParams())
	sh := newShard(e)
	sh.Obs = lifecycle.New(e, tr, nil, nil)
	sh.BudgetEnabled = true
	sh.BudgetRatio = 0.5
	sh.BudgetBurst = 0
	s := spec("f", 10)
	settle := func(ack bool) *function.Call {
		c := call(s, 0)
		sh.Enqueue(c)
		sh.Poll(10, nil)
		if ack {
			sh.Ack(c.ID)
		} else {
			sh.Nack(c.ID)
		}
		return c
	}
	settle(false) // denied: the spell starts
	settle(false) // denied within the same spell
	settle(true)
	settle(true) // two earns make one token: the spell ends
	c := settle(false)
	e.RunFor(time.Minute)
	if got := sh.Poll(10, nil); len(got) != 1 || got[0] != c {
		t.Fatalf("funded redelivery missing: %v", got)
	}
	sh.Nack(c.ID) // the token is spent: a second spell starts
	var kinds []string
	for _, ev := range tr.Controls() {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"budget.exhausted", "budget.recovered", "budget.exhausted"}
	if !slices.Equal(kinds, want) {
		t.Fatalf("control events %v, want %v", kinds, want)
	}
	if sh.DeadBudget.Value() != 3 {
		t.Fatalf("budget dead-letters = %v, want 3", sh.DeadBudget.Value())
	}
}

func TestBudgetDisabledNeverDenies(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	s := spec("f", 4)
	c := call(s, 0)
	sh.Enqueue(c)
	for i := 0; i < 3; i++ {
		if got := sh.Poll(10, nil); len(got) != 1 {
			t.Fatalf("poll %d failed", i)
		}
		sh.Nack(c.ID)
		e.RunFor(10 * time.Minute)
	}
	if sh.DeadBudget.Value() != 0 || sh.Redelivered.Value() != 3 {
		t.Fatalf("budget=%v redelivered=%v", sh.DeadBudget.Value(), sh.Redelivered.Value())
	}
}

func TestTerminateSettlesLeasedCall(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("poll failed")
	}
	if !sh.Terminate(c.ID, ReasonShed) {
		t.Fatal("terminate failed on a leased call")
	}
	if c.State != function.StateFailed {
		t.Fatalf("state = %v", c.State)
	}
	if sh.DeadShed.Value() != 1 || sh.Leased() != 0 {
		t.Fatalf("shed=%v leased=%d", sh.DeadShed.Value(), sh.Leased())
	}
	if sh.Terminate(c.ID, ReasonShed) {
		t.Fatal("terminate succeeded twice")
	}
	e.RunFor(time.Hour)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatalf("terminated call redelivered: %v", got)
	}
}
