package durableq

import (
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func newShard(e *sim.Engine) *Shard {
	return NewShard(ShardID{Region: 0, Index: 0}, e, nil)
}

func spec(name string, maxAttempts int) *function.Spec {
	return &function.Spec{
		Name:      name,
		Namespace: "ns",
		Deadline:  time.Hour,
		Retry:     function.RetryPolicy{MaxAttempts: maxAttempts, Backoff: 10 * time.Second},
	}
}

var nextID uint64

func call(s *function.Spec, startAfter sim.Time) *function.Call {
	nextID++
	return &function.Call{ID: nextID, Spec: s, StartAfter: startAfter}
}

func TestEnqueuePollAck(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if sh.Pending() != 1 {
		t.Fatalf("pending = %d", sh.Pending())
	}
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c.ID {
		t.Fatalf("poll = %v", got)
	}
	if c.State != function.StateLeased || c.Attempt != 1 {
		t.Fatalf("state=%v attempt=%d", c.State, c.Attempt)
	}
	if sh.Pending() != 0 || sh.Leased() != 1 {
		t.Fatalf("pending=%d leased=%d", sh.Pending(), sh.Leased())
	}
	if !sh.Ack(c.ID) {
		t.Fatal("ack failed")
	}
	if c.State != function.StateSucceeded {
		t.Fatalf("state = %v", c.State)
	}
	if sh.Ack(c.ID) {
		t.Fatal("double ack succeeded")
	}
	// Once acked the call never reappears.
	e.RunFor(time.Hour)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatalf("acked call redelivered: %v", got)
	}
}

func TestStartAfterHonored(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.Enqueue(call(spec("f", 3), 8*time.Hour)) // future execution start time
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatal("future call offered early")
	}
	e.RunFor(8 * time.Hour)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("ready call not offered after start time")
	}
}

func TestOrderWithinFunction(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	s := spec("f", 3)
	c1 := call(s, 3*time.Second)
	c2 := call(s, 1*time.Second)
	c3 := call(s, 2*time.Second)
	sh.Enqueue(c1)
	sh.Enqueue(c2)
	sh.Enqueue(c3)
	e.RunFor(time.Minute)
	got := sh.Poll(10, nil)
	if len(got) != 3 || got[0].ID != c2.ID || got[1].ID != c3.ID || got[2].ID != c1.ID {
		t.Fatalf("delivery order wrong: %v, %v, %v", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestNackRedeliversWithBackoff(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	got := sh.Poll(10, nil)
	if !sh.Nack(got[0].ID) {
		t.Fatal("nack failed")
	}
	if sh.Poll(10, nil) != nil {
		t.Fatal("redelivered before backoff")
	}
	e.RunFor(10 * time.Second)
	got = sh.Poll(10, nil)
	if len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("redelivery = %v", got)
	}
	if sh.Redelivered.Value() != 1 {
		t.Fatalf("redelivered counter = %v", sh.Redelivered.Value())
	}
}

func TestLeaseTimeoutRedelivers(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.LeaseTimeout = time.Minute
	c := call(spec("f", 5), 0)
	sh.Enqueue(c)
	sh.Poll(10, nil)
	// Scheduler dies: no ack, no nack.
	e.RunFor(2 * time.Minute)
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c.ID {
		t.Fatal("expired lease not redelivered")
	}
	if sh.Expired.Value() != 1 {
		t.Fatalf("expired counter = %v", sh.Expired.Value())
	}
}

func TestDeadLetterAfterMaxAttempts(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 2), 0)
	sh.Enqueue(c)
	for i := 0; i < 2; i++ {
		got := sh.Poll(10, nil)
		if len(got) != 1 {
			t.Fatalf("attempt %d not delivered", i+1)
		}
		sh.Nack(got[0].ID)
		e.RunFor(time.Minute)
	}
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatal("dead-lettered call redelivered")
	}
	if c.State != function.StateFailed {
		t.Fatalf("state = %v", c.State)
	}
	if sh.DeadLetters.Value() != 1 {
		t.Fatalf("dead letters = %v", sh.DeadLetters.Value())
	}
}

func TestPollFairnessAcrossFunctions(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	hot := spec("hot", 3)
	cold := spec("cold", 3)
	for i := 0; i < 100; i++ {
		sh.Enqueue(call(hot, 0))
	}
	sh.Enqueue(call(cold, 0))
	got := sh.Poll(10, nil)
	foundCold := false
	for _, c := range got {
		if c.Spec.Name == "cold" {
			foundCold = true
		}
	}
	if !foundCold {
		t.Fatal("round-robin polling starved the cold function")
	}
}

func TestPollFilter(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.Enqueue(call(spec("a", 3), 0))
	sh.Enqueue(call(spec("b", 3), 0))
	got := sh.Poll(10, func(c *function.Call) bool { return c.Spec.Name == "b" })
	if len(got) != 1 || got[0].Spec.Name != "b" {
		t.Fatalf("filter poll = %v", got)
	}
	// The filtered-out call is still there.
	got = sh.Poll(10, nil)
	if len(got) != 1 || got[0].Spec.Name != "a" {
		t.Fatalf("remaining poll = %v", got)
	}
}

func TestPendingReady(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.Enqueue(call(spec("f", 3), 0))
	sh.Enqueue(call(spec("f", 3), time.Hour))
	if n := sh.PendingReady(); n != 1 {
		t.Fatalf("ready = %d", n)
	}
}

// Property: no call is ever lost or duplicated — every enqueued call is
// eventually exactly-once terminal (succeeded or failed) when the consumer
// acks or nacks everything it receives.
func TestAtLeastOnceProperty(t *testing.T) {
	f := func(seed uint64, plan []bool) bool {
		if len(plan) == 0 {
			return true
		}
		e := sim.NewEngine()
		sh := newShard(e)
		sh.LeaseTimeout = time.Minute
		s := spec("f", 3)
		calls := make(map[uint64]*function.Call)
		for range plan {
			c := call(s, 0)
			calls[c.ID] = c
			sh.Enqueue(c)
		}
		acked := make(map[uint64]int)
		// Drive until drained: poll, then ack/nack per plan (nack first
		// delivery when plan says so, ack subsequent ones).
		deliveries := make(map[uint64]int)
		for rounds := 0; rounds < 100; rounds++ {
			got := sh.Poll(1000, nil)
			for _, c := range got {
				deliveries[c.ID]++
				idx := int(c.ID) % len(plan)
				if plan[idx] && deliveries[c.ID] == 1 {
					sh.Nack(c.ID)
				} else {
					if !sh.Ack(c.ID) {
						return false
					}
					acked[c.ID]++
				}
			}
			e.RunFor(30 * time.Second)
			if sh.Pending() == 0 && sh.Leased() == 0 {
				break
			}
		}
		if sh.Pending() != 0 || sh.Leased() != 0 {
			return false
		}
		for id, c := range calls {
			if acked[id] > 1 {
				return false // double completion
			}
			if acked[id] == 1 && c.State != function.StateSucceeded {
				return false
			}
			if acked[id] == 0 && c.State != function.StateFailed {
				return false // lost call
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersConsistent(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	for i := 0; i < 50; i++ {
		sh.Enqueue(call(spec("f", 3), 0))
	}
	got := sh.Poll(50, nil)
	for i, c := range got {
		if i%2 == 0 {
			sh.Ack(c.ID)
		} else {
			sh.Nack(c.ID)
		}
	}
	if sh.Enqueued.Value() != 50 {
		t.Fatalf("enqueued = %v", sh.Enqueued.Value())
	}
	if sh.Acked.Value() != 25 || sh.Nacked.Value() != 25 {
		t.Fatalf("acked=%v nacked=%v", sh.Acked.Value(), sh.Nacked.Value())
	}
}

func TestRenewPreventsExpiry(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.LeaseTimeout = time.Minute
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	sh.Poll(10, nil)
	// Renew every 30s for 5 minutes: the lease must never expire.
	for i := 0; i < 10; i++ {
		e.RunFor(30 * time.Second)
		if !sh.Renew(c.ID) {
			t.Fatal("renew of held lease failed")
		}
	}
	if sh.Expired.Value() != 0 {
		t.Fatalf("lease expired despite renewal: %v", sh.Expired.Value())
	}
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatal("renewed call redelivered")
	}
	// Stop renewing: the lease expires and the call redelivers.
	e.RunFor(2 * time.Minute)
	if got := sh.Poll(10, nil); len(got) != 1 {
		t.Fatal("unrenewed lease not redelivered")
	}
}

func TestRenewUnknownLease(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	if sh.Renew(999) {
		t.Fatal("renew of unknown lease succeeded")
	}
}

func TestRenewAfterAck(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	sh.Poll(10, nil)
	sh.Ack(c.ID)
	if sh.Renew(c.ID) {
		t.Fatal("renew after ack succeeded")
	}
}

// TestDeadLetterExactlyOnceViaNack drives a call to attempt exhaustion
// through explicit NACKs and verifies the dead-letter transition happens
// exactly once and is final: StateFailed, one DeadLetters increment, and
// no redelivery no matter how long or often the shard is polled after.
func TestDeadLetterExactlyOnceViaNack(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	for attempt := 1; attempt <= 3; attempt++ {
		e.RunFor(time.Minute) // past the retry backoff
		got := sh.Poll(10, nil)
		if len(got) != 1 || got[0].Attempt != attempt {
			t.Fatalf("attempt %d: got %d calls", attempt, len(got))
		}
		sh.Nack(got[0].ID)
	}
	if c.State != function.StateFailed {
		t.Fatalf("state = %v, want StateFailed", c.State)
	}
	if sh.DeadLetters.Value() != 1 {
		t.Fatalf("dead letters = %v, want exactly 1", sh.DeadLetters.Value())
	}
	if sh.Redelivered.Value() != 2 {
		t.Fatalf("redelivered = %v, want MaxAttempts-1 = 2", sh.Redelivered.Value())
	}
	if sh.Pending() != 0 || sh.Leased() != 0 {
		t.Fatalf("dead-lettered call still held: pending=%d leased=%d", sh.Pending(), sh.Leased())
	}
	for i := 0; i < 10; i++ {
		e.RunFor(time.Hour)
		if got := sh.Poll(10, nil); len(got) != 0 {
			t.Fatal("dead-lettered call redelivered")
		}
	}
	if sh.DeadLetters.Value() != 1 {
		t.Fatalf("dead letters grew to %v", sh.DeadLetters.Value())
	}
}

// TestDeadLetterExactlyOnceViaLeaseExpiry exhausts attempts through
// lease timeouts only (a scheduler that keeps dying), covering the
// expiry path into retryOrDrop.
func TestDeadLetterExactlyOnceViaLeaseExpiry(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.LeaseTimeout = time.Minute
	c := call(spec("f", 2), 0)
	sh.Enqueue(c)
	for attempt := 1; attempt <= 2; attempt++ {
		got := sh.Poll(10, nil)
		if len(got) != 1 || got[0].Attempt != attempt {
			t.Fatalf("attempt %d: got %d calls", attempt, len(got))
		}
		e.RunFor(2 * time.Minute) // no ack, no nack: the lease expires
	}
	if c.State != function.StateFailed {
		t.Fatalf("state = %v, want StateFailed", c.State)
	}
	if sh.DeadLetters.Value() != 1 || sh.Expired.Value() != 2 {
		t.Fatalf("dead letters = %v expired = %v", sh.DeadLetters.Value(), sh.Expired.Value())
	}
	e.RunFor(24 * time.Hour)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatal("expired-out call redelivered")
	}
	if sh.DeadLetters.Value() != 1 {
		t.Fatalf("dead letters grew to %v", sh.DeadLetters.Value())
	}
}

func TestShardDownGatesAllOperations(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	c1 := call(spec("f", 3), 0)
	if !sh.Enqueue(c1) {
		t.Fatal("enqueue rejected on healthy shard")
	}
	got := sh.Poll(10, nil)
	if len(got) != 1 {
		t.Fatal("poll on healthy shard")
	}

	sh.SetDown(true)
	if !sh.IsDown() {
		t.Fatal("IsDown after SetDown(true)")
	}
	if sh.Enqueue(call(spec("f", 3), 0)) {
		t.Fatal("down shard accepted an enqueue")
	}
	if sh.Enqueued.Value() != 1 {
		t.Fatalf("enqueued counter = %v after rejected write", sh.Enqueued.Value())
	}
	if polled := sh.Poll(10, nil); polled != nil {
		t.Fatalf("down shard served a poll: %v", polled)
	}
	if sh.Ack(c1.ID) || sh.Nack(c1.ID) || sh.Renew(c1.ID) {
		t.Fatal("down shard honored a lease operation")
	}
	if sh.Leased() != 1 {
		t.Fatalf("lease state mutated while down: leased=%d", sh.Leased())
	}

	sh.SetDown(false)
	if !sh.Ack(c1.ID) {
		t.Fatal("ack failed after the shard returned")
	}
	if sh.Acked.Value() != 1 {
		t.Fatalf("acked = %v", sh.Acked.Value())
	}
}

// TestLeaseExpiryDuringOutageRedelivers: lease timers keep running
// through an unavailability window, so a call whose Ack was lost to the
// outage redelivers once the shard returns — the at-least-once contract,
// duplicates included.
func TestLeaseExpiryDuringOutageRedelivers(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.LeaseTimeout = time.Minute
	c := call(spec("f", 5), 0)
	sh.Enqueue(c)
	got := sh.Poll(10, nil)
	if len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.SetDown(true)
	e.RunFor(5 * time.Minute) // lease expires mid-outage
	if sh.Expired.Value() != 1 {
		t.Fatalf("expired = %v during outage", sh.Expired.Value())
	}
	sh.SetDown(false)
	redelivered := sh.Poll(10, nil)
	if len(redelivered) != 1 || redelivered[0].ID != c.ID || redelivered[0].Attempt != 2 {
		t.Fatalf("redelivery after outage: %v", redelivered)
	}
}
