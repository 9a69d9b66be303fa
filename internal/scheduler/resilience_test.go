package scheduler

import (
	"testing"
	"time"

	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// resilRig rebuilds the standard rig with one single-thread worker (so
// the fleet saturates deterministically) and its RunQ capped at runQCap.
func resilRig(runQCap int) *rig {
	r := newRig(1, 100000)
	wp := worker.DefaultParams()
	wp.MaxConcurrency = 1
	wp.CPUMIPS = 100000
	r.pool[0] = worker.New(worker.ID{}, r.engine, wp, rng.New(1), nil)
	r.lb = workerlb.New(rng.New(2), r.pool)
	r.sched.Crash()
	r.sched = New(r.engine, rng.New(3), 0, DefaultParams(), r.shards, r.lb, r.cen, r.cong, r.store)
	r.sched.runQCap = runQCap
	return r
}

// blockSpec is the saturating workload: high-criticality reserved calls
// that monopolize the single worker thread and the RunQ.
func blockSpec() *function.Spec {
	s := rigSpec("blocker", function.CritHigh)
	s.QuotaMIPS = 1e9
	return s
}

func oppSpec(name string, crit function.Criticality, deadline time.Duration) *function.Spec {
	return &function.Spec{
		Name:        name,
		Namespace:   "ns",
		Deadline:    deadline,
		Criticality: crit,
		Quota:       function.QuotaOpportunistic,
		QuotaMIPS:   1e9,
		Retry:       function.DefaultRetry,
	}
}

// enqueueSlow enqueues n calls of spec s that each occupy the worker for
// execSecs.
func (r *rig) enqueueSlow(s *function.Spec, n int, execSecs float64) []*function.Call {
	calls := r.enqueue(s, n)
	for _, c := range calls {
		c.ExecSecs = execSecs
	}
	return calls
}

func TestShedSweepDropsOverDelayedOpportunistic(t *testing.T) {
	r := resilRig(1)
	r.sched.ShedEnabled = true
	r.enqueueSlow(blockSpec(), 100, 120)
	// CritLow target is 2m and deadline/4 is also 2m: shedding must start
	// once the head delay outlasts 2m plus the 30s observation window.
	victims := r.enqueue(oppSpec("victim", function.CritLow, 8*time.Minute), 20)
	r.engine.RunFor(5 * time.Minute)
	if got := r.sched.ShedCalls.Value(); got != 20 {
		t.Fatalf("shed calls = %v, want all 20 victims", got)
	}
	for _, c := range victims {
		if c.State != function.StateFailed {
			t.Fatalf("victim %d state = %v", c.ID, c.State)
		}
	}
	if got := r.shard.DeadShed.Value(); got != 20 {
		t.Fatalf("shard shed dead-letters = %v", got)
	}
	// Only the shed disposition fired; the blockers are alive.
	if r.shard.DeadLetters.Value() != r.shard.DeadShed.Value() {
		t.Fatalf("dead=%v shed=%v", r.shard.DeadLetters.Value(), r.shard.DeadShed.Value())
	}
}

func TestShedNeverTouchesReservedOrHighCriticality(t *testing.T) {
	r := resilRig(1)
	r.sched.ShedEnabled = true
	r.enqueueSlow(blockSpec(), 100, 120)
	reserved := rigSpec("reserved-victim", function.CritLow)
	reserved.Deadline = 8 * time.Minute
	reserved.QuotaMIPS = 1e9
	r.enqueue(reserved, 10)
	r.enqueue(oppSpec("high-victim", function.CritHigh, 8*time.Minute), 10)
	r.engine.RunFor(10 * time.Minute)
	if got := r.sched.ShedCalls.Value(); got != 0 {
		t.Fatalf("shed calls = %v; reserved and high-criticality work must never shed", got)
	}
	if got := r.shard.DeadShed.Value(); got != 0 {
		t.Fatalf("shard shed dead-letters = %v", got)
	}
}

func TestShedTargetScalesWithDeadline(t *testing.T) {
	// Delay-tolerant work (a 24h-deadline pipeline) gets a deadline/4
	// target, so hours of deliberate deferral are not mistaken for
	// overload — a 10-minute head delay must not shed.
	r := resilRig(1)
	r.sched.ShedEnabled = true
	r.enqueueSlow(blockSpec(), 100, 120)
	r.enqueue(oppSpec("pipeline", function.CritLow, 24*time.Hour), 20)
	r.engine.RunFor(10 * time.Minute)
	if got := r.sched.ShedCalls.Value(); got != 0 {
		t.Fatalf("shed calls = %v; 24h-deadline work sheds only past a 6h delay", got)
	}
}

func TestShedDisabledByDefault(t *testing.T) {
	r := resilRig(1)
	r.enqueueSlow(blockSpec(), 100, 120)
	victims := r.enqueue(oppSpec("victim", function.CritLow, 8*time.Minute), 20)
	r.engine.RunFor(10 * time.Minute)
	if got := r.sched.ShedCalls.Value(); got != 0 {
		t.Fatalf("shed calls = %v with shedding disabled", got)
	}
	for _, c := range victims {
		if c.State == function.StateFailed {
			t.Fatalf("victim %d dead-lettered with shedding disabled", c.ID)
		}
	}
}

func TestDispatchSweepsExpiredFromRunQ(t *testing.T) {
	r := resilRig(runQLimit)
	r.sched.SweepExpired = true
	// The blocker occupies the single worker thread for a minute, so the
	// short-deadline victim waits in the RunQ past its deadline.
	r.enqueueSlow(blockSpec(), 1, 60)
	victim := rigSpec("victim", function.CritNormal)
	victim.Deadline = 5 * time.Second
	calls := r.enqueue(victim, 1)
	r.engine.RunFor(30 * time.Second)
	if got := r.sched.ExpiredSwept.Value(); got != 1 {
		t.Fatalf("dispatch-swept = %v, want 1", got)
	}
	c := calls[0]
	if c.State != function.StateFailed {
		t.Fatalf("victim state = %v", c.State)
	}
	if c.ExecStartAt != 0 {
		t.Fatalf("expired call reached a worker at %v", c.ExecStartAt)
	}
	if r.shard.DeadExpired.Value() != 1 {
		t.Fatalf("shard expired dead-letters = %v", r.shard.DeadExpired.Value())
	}
}

func TestDispatchDeliversExpiredWhenSweepOff(t *testing.T) {
	// Seed behavior preserved: without the sweep, an expired call still
	// executes (and counts an SLO miss elsewhere).
	r := resilRig(runQLimit)
	r.enqueueSlow(blockSpec(), 1, 60)
	victim := rigSpec("victim", function.CritNormal)
	victim.Deadline = 5 * time.Second
	calls := r.enqueue(victim, 1)
	r.engine.RunFor(5 * time.Minute)
	if got := r.sched.ExpiredSwept.Value(); got != 0 {
		t.Fatalf("dispatch-swept = %v with sweep off", got)
	}
	if calls[0].State != function.StateSucceeded {
		t.Fatalf("victim state = %v, want executed", calls[0].State)
	}
}

// Shed accounting stays consistent with the shard's lease table: a shed
// call's lease is released, so the shard reports no leaked leases after
// the spell.
func TestShedReleasesLeases(t *testing.T) {
	r := resilRig(1)
	r.sched.ShedEnabled = true
	r.enqueueSlow(blockSpec(), 2, 30)
	r.enqueue(oppSpec("victim", function.CritLow, 8*time.Minute), 15)
	r.engine.RunFor(5 * time.Minute)
	if got := r.sched.ShedCalls.Value(); got == 0 {
		t.Fatal("no calls shed")
	}
	if r.sched.ShedCalls.Value() != r.shard.DeadShed.Value() {
		t.Fatalf("sched shed %v != shard shed %v", r.sched.ShedCalls.Value(), r.shard.DeadShed.Value())
	}
	r.engine.RunFor(5 * time.Minute) // blockers and any dispatched victims finish
	if r.shard.Leased() != 0 {
		t.Fatalf("leaked leases: %d", r.shard.Leased())
	}
	_ = durableq.ReasonShed // the disposition the sweeps above settled with
}

// TestCrashEndsSheddingSpell: a shedding spell lives in process memory,
// like the hedge-delay estimators (TestCrashForgetsHedgeDelays). A crash
// mid-spell ends it, so a restarted replica that finds a backlog already
// past its target waits a fresh shedInterval before shedding again.
func TestCrashEndsSheddingSpell(t *testing.T) {
	r := resilRig(1)
	r.sched.ShedEnabled = true
	victim := oppSpec("victim", function.CritLow, 8*time.Minute)
	r.enqueueSlow(blockSpec(), 100, 120)
	r.enqueue(victim, 20)
	for i := 0; r.sched.ShedCalls.Value() == 0; i++ {
		if i == 600 {
			t.Fatal("no shedding spell within 10 minutes of saturation")
		}
		r.engine.RunFor(time.Second)
	}
	if !r.sched.buffers[victim.Name].shed.shedding {
		t.Fatal("the sweep that shed calls left no spell running")
	}
	shed := r.sched.ShedCalls.Value()
	r.sched.Crash()
	// These wait in the DurableQ while the replica is down, so its first
	// sweep after the restart already sees them past the 2-minute target.
	r.enqueue(victim, 20)
	const down = 3 * time.Minute
	r.sched.Restart(down)
	r.engine.RunFor(down + shedInterval - 2*time.Second)
	if got := r.sched.ShedCalls.Value(); got != shed {
		t.Fatalf("shed %v calls within shedInterval of the restart: the spell outlived the crash", got-shed)
	}
	r.engine.RunFor(5 * time.Second)
	if got := r.sched.ShedCalls.Value(); got != shed+20 {
		t.Fatalf("shed %v calls a full shedInterval after the restart, want 20", got-shed)
	}
}
