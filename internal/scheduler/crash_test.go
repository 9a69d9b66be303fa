package scheduler

import (
	"testing"
	"time"

	"xfaas/internal/function"
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
	if r.sched.Buffered() != 0 || r.sched.RunQLen() != 0 || len(r.sched.origin) != 0 {
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
