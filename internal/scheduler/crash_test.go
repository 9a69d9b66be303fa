package scheduler

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// TestCrashOrphansLeasesAndRecovers exercises the statelessness claim:
// a scheduler crash destroys its buffers, run queue and lease tracking;
// the orphaned DurableQ leases expire and redeliver, and after the
// restart delay the replica rebuilds purely by polling — every accepted
// call still completes (possibly twice-executed, never lost).
func TestCrashOrphansLeasesAndRecovers(t *testing.T) {
	r := newRig(4, 100000)
	r.shard.LeaseTimeout = 2 * time.Minute
	spec := rigSpec("f", function.CritNormal)
	calls := r.enqueue(spec, 200)

	// Let the scheduler pull and hold real state, then kill it.
	r.engine.RunFor(1500 * time.Millisecond)
	if r.sched.Buffered()+r.sched.RunQLen()+r.sched.InFlight() == 0 {
		t.Fatal("rig held no scheduler state at crash time — test is vacuous")
	}
	r.sched.Crash()
	if !r.sched.IsDown() || r.sched.Crashes.Value() != 1 {
		t.Fatal("crash not recorded")
	}
	if r.sched.Buffered() != 0 || r.sched.RunQLen() != 0 {
		t.Fatal("crash left in-memory state behind")
	}

	// Down window: ticks and renewals are dead, leases age out.
	r.sched.Restart(5 * time.Second)
	r.engine.RunFor(time.Second)
	if !r.sched.IsDown() {
		t.Fatal("replica up before its rebuild delay")
	}

	// After restart + lease expiry, everything redelivers and completes.
	r.engine.RunFor(10 * time.Minute)
	if r.sched.IsDown() {
		t.Fatal("replica still down after rebuild delay")
	}
	for _, c := range calls {
		if c.State != function.StateSucceeded {
			t.Fatalf("call %d state = %v after recovery", c.ID, c.State)
		}
	}
	if r.shard.Pending() != 0 || r.shard.Leased() != 0 {
		t.Fatalf("shard not drained: pending=%d leased=%d", r.shard.Pending(), r.shard.Leased())
	}
	// Congestion slots released at crash must not be released again by
	// late completion callbacks: occupancy ends exactly at zero.
	if running := r.cong.Control(spec).Conc.Running(); running != 0 {
		t.Fatalf("concurrency occupancy = %d after recovery, want 0", running)
	}
}

// TestRedeliveredWhileRunningIsNotDispatchedTwice: a journaled shard that
// crashes and restarts redelivers every lease it had granted at once, so
// the replica polls a call again while its first execution still runs.
// The replica must keep the new lease for that execution to settle, not
// dispatch a second copy that takes a second congestion slot.
func TestRedeliveredWhileRunningIsNotDispatchedTwice(t *testing.T) {
	r := newRig(2, 100000)
	r.shard.EnableJournal(0)
	r.lb.StartHealthChecks(r.engine)
	spec := rigSpec("f", function.CritNormal)
	r.enqueueLong(spec, 1, 120)
	r.engine.RunFor(3 * time.Second)
	var first *worker.Worker
	for _, w := range r.pool {
		if w.Running() == 1 {
			first = w
		}
	}
	if first == nil {
		t.Fatal("the call is not running 3 s in — test is vacuous")
	}
	r.shard.Crash()
	r.shard.Restart()
	r.engine.RunFor(40 * time.Minute)
	if got := r.sched.Dispatched.Value(); got != 1 {
		t.Errorf("Dispatched = %v, want 1", got)
	}
	if got := r.cong.Control(spec).Conc.Running(); got != 0 {
		t.Errorf("concurrency occupancy = %d at the end, want 0", got)
	}
	if got := r.sched.Acked.Value(); got != 1 {
		t.Errorf("Acked = %v, want 1", got)
	}
	// Nothing is in flight any more, so the first worker's silent death
	// has nothing to evacuate.
	first.FailSilent()
	r.engine.RunFor(4 * workerlb.HeartbeatInterval)
	if got := r.sched.Evacuated.Value(); got != 0 {
		t.Errorf("Evacuated = %v after the worker died idle, want 0", got)
	}
}

// TestLateCompletionAfterCrashIgnored: an execution dispatched before
// the crash completes while the replica is down; the callback must be
// ignored (the new process never knew the call) and the call settles
// through lease-expiry redelivery instead.
func TestLateCompletionAfterCrashIgnored(t *testing.T) {
	r := newRig(2, 100000)
	r.shard.LeaseTimeout = time.Minute
	calls := r.enqueue(rigSpec("slow", function.CritNormal), 4)
	for _, c := range calls {
		// Long enough to outlive the crash window, short enough (even at
		// cold-JIT speed) to finish within the redelivered lease.
		c.ExecSecs = 5
	}
	r.engine.RunFor(1500 * time.Millisecond)
	if r.sched.InFlight() == 0 {
		t.Fatal("nothing in flight at crash time — test is vacuous")
	}
	r.sched.Crash()
	ackedAtCrash := r.sched.Acked.Value()
	r.sched.Restart(2 * time.Second)
	// Pre-crash executions finish during the down window; their
	// completions must not ack anything.
	r.engine.RunFor(30 * time.Second)
	if got := r.sched.Acked.Value(); got != ackedAtCrash {
		t.Fatalf("late completion acked through a dead process: %v -> %v", ackedAtCrash, got)
	}
	// Eventually the expired leases redeliver and the calls complete.
	r.engine.RunFor(20 * time.Minute)
	for _, c := range calls {
		if c.State != function.StateSucceeded {
			t.Fatalf("call %d state = %v", c.ID, c.State)
		}
	}
}

// TestOnlyTheHolderRenews: a journaled shard's crash replay redelivers a
// call that replica A is still executing, and replica B takes the new
// lease. A keeps renewing what it holds, but the lease is B's: when B
// crashes, the lease must run out one LeaseTimeout after B's last
// renewal, not be kept alive by A.
func TestOnlyTheHolderRenews(t *testing.T) {
	r := newRig(2, 100000)
	r.shard.EnableJournal(0)
	spec := rigSpec("f", function.CritNormal)
	r.enqueueLong(spec, 1, 3600)
	r.engine.RunFor(2 * time.Second)
	if r.sched.InFlight() != 1 {
		t.Fatal("the call is not running on A 2 s in — test is vacuous")
	}
	r.sched.SetDraining(true) // A renews but polls no more
	b := New(r.engine, rng.New(9), 0, DefaultParams(), r.shards, r.lb, r.cen, r.cong, r.store)
	born := r.engine.Now()
	r.shard.Crash()
	r.shard.Restart()
	r.engine.RunFor(time.Minute)
	if b.InFlight() != 1 || r.shard.Leased() != 1 {
		t.Fatalf("B runs %d calls and the shard holds %d leases after the replay, want 1 and 1",
			b.InFlight(), r.shard.Leased())
	}
	r.engine.RunFor(4 * time.Minute)
	b.Crash()
	lastRenewal := born + LeaseRenewInterval
	r.engine.RunUntil(lastRenewal + r.shard.LeaseTimeout - 1)
	if got := r.shard.Expired.Value(); got != 0 {
		t.Fatalf("%v leases expired before B's lease ran out", got)
	}
	r.engine.RunUntil(lastRenewal + r.shard.LeaseTimeout)
	if got := r.shard.Expired.Value(); got != 1 {
		t.Fatalf("B's lease did not expire one LeaseTimeout after B's last renewal: %v expired", got)
	}
}

// TestRefusedSettleLetsTheLeaseRunOut: a call completes while its shard
// is down, so the ack is refused and the replica forgets the call. Its
// lease must run out at the deadline it had and redeliver the call, not
// be kept alive by the replica's renewal rounds.
func TestRefusedSettleLetsTheLeaseRunOut(t *testing.T) {
	r := newRig(1, 100000)
	calls := r.enqueueLong(rigSpec("f", function.CritNormal), 1, 20)
	r.engine.RunFor(10 * time.Second)
	if r.sched.InFlight() != 1 {
		t.Fatal("the call is not running 10 s in — test is vacuous")
	}
	r.shard.SetDown(true)
	for r.sched.InFlight() != 0 && r.engine.Now() < 3*time.Minute {
		r.engine.RunFor(time.Second) // the execution finishes; its ack is refused
	}
	r.shard.SetDown(false)
	if r.sched.InFlight() != 0 || r.shard.Leased() != 1 || r.sched.Acked.Value() != 0 {
		t.Fatalf("after the refused ack: %d in flight, %d leased, %v acked, want 0, 1 and 0",
			r.sched.InFlight(), r.shard.Leased(), r.sched.Acked.Value())
	}
	r.engine.RunUntil(r.shard.LeaseTimeout + 30*time.Second) // a renewal round in between
	if got := r.shard.Expired.Value(); got != 1 {
		t.Fatalf("%v leases ran out, want the forgotten one", got)
	}
	r.engine.RunFor(10 * time.Minute)
	if calls[0].State != function.StateSucceeded {
		t.Fatalf("the redelivered call ended %v", calls[0].State)
	}
}
