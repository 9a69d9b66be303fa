package durableq

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

// drainReplay runs virtual time far enough for any replay to finish.
func drainReplay(t *testing.T, e *sim.Engine, sh *Shard) {
	t.Helper()
	e.RunFor(time.Minute)
	if sh.IsDown() {
		t.Fatal("shard still down a minute after Restart")
	}
}

func TestCrashWithoutJournalLosesEverything(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	queued := call(spec("f", 3), 0)
	leased := call(spec("f", 3), 0)
	sh.Enqueue(leased)
	got := sh.Poll(1, nil)
	if len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.Enqueue(queued)

	sh.Crash()
	if sh.LostOnCrash.Value() != 2 {
		t.Fatalf("lost = %v, want both held calls", sh.LostOnCrash.Value())
	}
	if queued.State != function.StateFailed || leased.State != function.StateFailed {
		t.Fatalf("lost calls not terminal: %v %v", queued.State, leased.State)
	}
	if !sh.IsDown() || !sh.Recovering() {
		t.Fatal("crashed shard not down")
	}

	sh.Restart()
	drainReplay(t, e, sh)
	if sh.Pending() != 0 || sh.Leased() != 0 {
		t.Fatalf("unjournaled shard restarted non-empty: pending=%d leased=%d",
			sh.Pending(), sh.Leased())
	}
	// Lease timers died with the process: the old lease must never fire.
	e.RunFor(24 * time.Hour)
	if sh.Expired.Value() != 0 {
		t.Fatalf("dead process's lease timer fired: expired=%v", sh.Expired.Value())
	}
	if !sh.Enqueue(call(spec("f", 3), 0)) {
		t.Fatal("restarted shard rejected an enqueue")
	}
}

func TestCrashSynchronousJournalLosesNothing(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0) // synchronous durability
	var calls []*function.Call
	for i := 0; i < 5; i++ {
		c := call(spec("f", 3), 0)
		calls = append(calls, c)
		sh.Enqueue(c)
	}
	if got := sh.Poll(2, nil); len(got) != 2 {
		t.Fatal("setup poll")
	}

	sh.Crash()
	if sh.LostOnCrash.Value() != 0 {
		t.Fatalf("synchronous journal lost %v calls", sh.LostOnCrash.Value())
	}
	if sh.CrashHeld() != 5 {
		t.Fatalf("crash-held = %d, want all 5 durable calls", sh.CrashHeld())
	}

	sh.Restart()
	drainReplay(t, e, sh)
	if sh.CrashHeld() != 0 {
		t.Fatalf("crash-held = %d after replay", sh.CrashHeld())
	}
	if sh.Replayed.Value() != 5 {
		t.Fatalf("replayed = %v, want 5", sh.Replayed.Value())
	}
	got := sh.Poll(100, nil)
	if len(got) != 5 {
		t.Fatalf("redelivered %d calls, want all 5", len(got))
	}
	for _, c := range calls {
		if c.State != function.StateLeased {
			t.Fatalf("call %d not redelivered: %v", c.ID, c.State)
		}
	}
}

func TestCrashTornTailLosesOnlyUnflushed(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(100 * time.Millisecond)
	durable := call(spec("f", 3), 0)
	sh.Enqueue(durable)
	e.RunFor(150 * time.Millisecond) // flush tick passes: durable is safe
	torn := call(spec("f", 3), 0)
	sh.Enqueue(torn)

	sh.Crash()
	if sh.LostOnCrash.Value() != 1 {
		t.Fatalf("lost = %v, want exactly the torn-tail call", sh.LostOnCrash.Value())
	}
	if torn.State != function.StateFailed {
		t.Fatalf("torn call state = %v", torn.State)
	}
	if sh.CrashHeld() != 1 {
		t.Fatalf("crash-held = %d, want the durable call", sh.CrashHeld())
	}

	sh.Restart()
	drainReplay(t, e, sh)
	got := sh.Poll(100, nil)
	if len(got) != 1 || got[0].ID != durable.ID {
		t.Fatalf("replay redelivered %v, want only the durable call", got)
	}
}

// TestReplayRedeliversOrphanedLeaseImmediately: a call that was leased at
// crash time has unknown outcome, so replay requeues it for immediate
// redelivery — the at-least-once duplicate window.
func TestReplayRedeliversOrphanedLeaseImmediately(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}

	sh.Crash()
	sh.Restart()
	drainReplay(t, e, sh)
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c.ID {
		t.Fatalf("orphaned lease not redelivered: %v", got)
	}
	if got[0].Attempt != 2 {
		t.Fatalf("attempt = %d, want 2 (redelivery)", got[0].Attempt)
	}
}

// TestDuplicateSuppression: the execution that started before the crash
// completes after replay requeued its call; the late Ack settles the
// queued duplicate instead of letting it run twice.
func TestDuplicateSuppression(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}

	sh.Crash()
	sh.Restart()
	drainReplay(t, e, sh)
	if sh.Pending() != 1 {
		t.Fatalf("pending = %d after replay", sh.Pending())
	}
	// The pre-crash execution finishes now and acks late.
	if !sh.Ack(c.ID) {
		t.Fatal("late ack of a replayed call rejected")
	}
	if sh.DupSuppressed.Value() != 1 || sh.Acked.Value() != 1 {
		t.Fatalf("dup-suppressed=%v acked=%v", sh.DupSuppressed.Value(), sh.Acked.Value())
	}
	if c.State != function.StateSucceeded {
		t.Fatalf("state = %v", c.State)
	}
	if sh.Pending() != 0 {
		t.Fatalf("pending = %d after suppression", sh.Pending())
	}
	// The tombstoned duplicate must never be delivered.
	e.RunFor(time.Hour)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatalf("suppressed duplicate delivered: %v", got)
	}
	if sh.Ack(c.ID) {
		t.Fatal("double ack of a suppressed call succeeded")
	}
}

// TestSuppressionWindowClosesAtRedelivery: once the replayed duplicate
// has been offered to a scheduler, a late ack from the pre-crash attempt
// can no longer suppress it — the second execution is already running
// and will settle the call itself.
func TestSuppressionWindowClosesAtRedelivery(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.Crash()
	sh.Restart()
	drainReplay(t, e, sh)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("replayed call not redelivered")
	}
	// First execution's ack races in after redelivery: it must be the
	// second (leased) attempt that owns settlement now.
	if !sh.Ack(c.ID) {
		t.Fatal("ack of the redelivered lease failed")
	}
	if sh.DupSuppressed.Value() != 0 {
		t.Fatalf("suppression fired after redelivery: %v", sh.DupSuppressed.Value())
	}
	if sh.Ack(c.ID) {
		t.Fatal("second settlement of the same call succeeded")
	}
}

// TestTornAckResurrection: the enqueue and lease are durable but the ack
// sits in the torn tail. The client saw its ack, the shard does not —
// replay resurrects the call and it executes again. Observable
// at-least-once: duplicated, never lost.
func TestTornAckResurrection(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.Journal().SetFlushLag(time.Hour) // the ack will not reach the disk
	if !sh.Ack(c.ID) {
		t.Fatal("ack failed")
	}

	sh.Crash()
	if sh.LostOnCrash.Value() != 0 {
		t.Fatalf("a settled call was reported lost: %v", sh.LostOnCrash.Value())
	}
	sh.Restart()
	drainReplay(t, e, sh)
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c.ID {
		t.Fatalf("torn-ack call not resurrected: %v", got)
	}
	if sh.Replayed.Value() != 1 {
		t.Fatalf("replayed = %v", sh.Replayed.Value())
	}
}

// TestRestoredDrainSurvivesCompaction: a drain extracts a call (journaled
// as an ack: its durable home moves with it), the peer refuses it, and the
// controller restores it to the shard it came from — the log now reads
// enqueue, ack, enqueue. The call is live: its newest record is the
// re-enqueue, and the stale ack before it must not let compaction erase
// the records a crash would replay it from.
func TestRestoredDrainSurvivesCompaction(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(100 * time.Millisecond)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	extracted := sh.DrainExtract(nil, 1, func(*function.Call) bool { return true })
	if len(extracted) != 1 || extracted[0] != c {
		t.Fatalf("setup extract: %v", extracted)
	}
	if !sh.AdoptDrained(c) {
		t.Fatal("source shard refused its own call back")
	}
	// Grow the log past the compaction threshold and let a flush tick run.
	filler := spec("filler", 3)
	for sh.Journal().Len() <= 16384 {
		sh.Enqueue(call(filler, 0))
	}
	held := sh.Journal().Len()
	e.RunFor(150 * time.Millisecond)
	if got := sh.Journal().Len(); got != held {
		t.Fatalf("compaction dropped %d records of unsettled calls", held-got)
	}

	sh.Crash()
	if sh.LostOnCrash.Value() != 0 {
		t.Fatalf("lost %v calls with every record durable", sh.LostOnCrash.Value())
	}
	sh.Restart()
	drainReplay(t, e, sh)
	if c.State != function.StateQueued || sh.Pending() != held-2 {
		t.Fatalf("restored call not replayed: state %v, pending %d of %d", c.State, sh.Pending(), held-2)
	}
}

// TestSettledInTornTailNotLost: a call whose entire record — enqueue,
// lease, ack — sits in the torn tail completed before the crash; it must
// not be counted lost (the client was acked) and must not reappear.
func TestSettledInTornTailNotLost(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(time.Hour) // nothing ever flushes
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}
	if !sh.Ack(c.ID) {
		t.Fatal("ack failed")
	}

	sh.Crash()
	if sh.LostOnCrash.Value() != 0 {
		t.Fatalf("settled call counted lost: %v", sh.LostOnCrash.Value())
	}
	sh.Restart()
	drainReplay(t, e, sh)
	if got := sh.Poll(10, nil); len(got) != 0 {
		t.Fatalf("settled call resurrected from nothing: %v", got)
	}
}

func TestSetDownCannotReviveCrashedShard(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	sh.Enqueue(call(spec("f", 3), 0))
	sh.Crash()
	sh.SetDown(false)
	if !sh.IsDown() {
		t.Fatal("SetDown(false) revived a crashed shard without replay")
	}
	sh.Restart()
	drainReplay(t, e, sh)
	if sh.Pending() != 1 {
		t.Fatalf("pending = %d after proper restart", sh.Pending())
	}
}

func TestCrashedShardRejectsAllOperations(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	c := call(spec("f", 3), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.Crash()
	sh.Restart()
	// Mid-replay window: everything must still fail.
	if sh.Enqueue(call(spec("f", 3), 0)) {
		t.Fatal("recovering shard accepted an enqueue")
	}
	if got := sh.Poll(10, nil); got != nil {
		t.Fatalf("recovering shard served a poll: %v", got)
	}
	if sh.Ack(c.ID) || sh.Nack(c.ID) || sh.Renew(c.ID) {
		t.Fatal("recovering shard honored a lease operation")
	}
	drainReplay(t, e, sh)
	if !sh.Enqueue(call(spec("f", 3), 0)) {
		t.Fatal("recovered shard rejected an enqueue")
	}
}

// TestReplayTimeScalesWithJournal: recovery time is ReplayBase plus the
// per-entry replay cost, so the shard with the bigger journal takes
// measurably longer to come back.
func TestReplayTimeScalesWithJournal(t *testing.T) {
	recoveryTime := func(n int) sim.Time {
		e := sim.NewEngine()
		sh := newShard(e)
		sh.EnableJournal(0)
		sh.ReplayBase = 2 * time.Second
		sh.ReplayPerEntry = time.Millisecond
		sh.ReplayBatch = 8
		for i := 0; i < n; i++ {
			sh.Enqueue(call(spec("f", 3), 0))
		}
		sh.Crash()
		start := e.Now()
		sh.Restart()
		for sh.IsDown() {
			e.RunFor(time.Millisecond)
			if e.Now()-start > time.Hour {
				panic("replay never finished")
			}
		}
		return e.Now() - start
	}
	small := recoveryTime(4)
	large := recoveryTime(64)
	if small < 2*time.Second {
		t.Fatalf("recovery %v shorter than the replay base", small)
	}
	if large <= small {
		t.Fatalf("64-entry replay (%v) not slower than 4-entry (%v)", large, small)
	}
	// 64 entries at 1ms each: at least 60ms more than the small journal.
	if large-small < 50*time.Millisecond {
		t.Fatalf("replay cost not proportional: %v vs %v", small, large)
	}
}

func TestCrashDuringReplayRecrashesCleanly(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.EnableJournal(0)
	sh.ReplayBase = time.Second
	sh.ReplayPerEntry = 10 * time.Millisecond
	sh.ReplayBatch = 2
	for i := 0; i < 10; i++ {
		sh.Enqueue(call(spec("f", 3), 0))
	}
	sh.Crash()
	sh.Restart()
	e.RunFor(time.Second + 15*time.Millisecond) // mid-replay
	sh.Crash()                                  // second failure during recovery
	if sh.LostOnCrash.Value() != 0 {
		t.Fatalf("re-crash lost %v durable calls", sh.LostOnCrash.Value())
	}
	if sh.CrashHeld() != 10 {
		t.Fatalf("crash-held = %d after re-crash, want all 10", sh.CrashHeld())
	}
	sh.Restart()
	drainReplay(t, e, sh)
	if sh.Pending() != 10 {
		t.Fatalf("pending = %d after second replay, want 10", sh.Pending())
	}
}

// --- retry backoff jitter (satellite: deterministic full-jitter) ---

func TestBackoffNilSourcePassesBaseThrough(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e) // nil rng source
	c := call(spec("f", 5), 0)
	c.Attempt = 3
	if got := sh.backoff(c, 10*time.Second); got != 10*time.Second {
		t.Fatalf("nil-source backoff = %v, want the fixed base", got)
	}
}

func TestBackoffJitterBoundedAndExponential(t *testing.T) {
	e := sim.NewEngine()
	sh := NewShard(ShardID{}, e, rng.New(7))
	sh.BackoffCap = 5 * time.Minute
	base := 10 * time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		window := base << (attempt - 1)
		if window > sh.BackoffCap || window <= 0 {
			window = sh.BackoffCap
		}
		for i := 0; i < 50; i++ {
			c := call(spec("f", 20), 0)
			c.Attempt = attempt
			got := sh.backoff(c, base)
			if got < 0 || got >= window {
				t.Fatalf("attempt %d: backoff %v outside [0, %v)", attempt, got, window)
			}
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	e := sim.NewEngine()
	draw := func() []time.Duration {
		sh := NewShard(ShardID{}, e, rng.New(42))
		var out []time.Duration
		for i := 0; i < 32; i++ {
			c := call(spec("f", 10), 0)
			c.Attempt = 1 + i%5
			out = append(out, sh.backoff(c, 10*time.Second))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v — jitter not seed-deterministic", i, a[i], b[i])
		}
	}
}

func TestJitteredRedeliveryStaysWithinWindow(t *testing.T) {
	e := sim.NewEngine()
	sh := NewShard(ShardID{}, e, rng.New(3))
	c := call(spec("f", 5), 0)
	sh.Enqueue(c)
	got := sh.Poll(1, nil)
	if len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.Nack(c.ID)
	// Full jitter over [0, 10s): the call must be deliverable within the
	// base window, never after it.
	e.RunFor(10 * time.Second)
	redelivered := sh.Poll(10, nil)
	if len(redelivered) != 1 || redelivered[0].ID != c.ID {
		t.Fatalf("jittered retry not redelivered within the window: %v", redelivered)
	}
}

// --- lease-expiry edge cases (satellite: table-driven) ---

// TestLeaseExpiryEdges drives a call through lease expiry and then
// applies a late lease operation that must be rejected: the expired
// lease no longer exists, the requeued call is unaffected, and
// settlement happens exactly once through the redelivery.
func TestLeaseExpiryEdges(t *testing.T) {
	cases := []struct {
		name    string
		lateOp  func(*Shard, uint64) bool
		opName  string
		journal bool
	}{
		{"expire-then-late-ack", (*Shard).Ack, "ack", false},
		{"expire-then-late-ack-journaled", (*Shard).Ack, "ack", true},
		{"expire-then-late-nack", (*Shard).Nack, "nack", false},
		{"expire-then-late-renew", (*Shard).Renew, "renew", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			sh := newShard(e)
			if tc.journal {
				sh.EnableJournal(0)
			}
			sh.LeaseTimeout = time.Minute
			c := call(spec("f", 5), 0)
			sh.Enqueue(c)
			if got := sh.Poll(1, nil); len(got) != 1 {
				t.Fatal("setup poll")
			}
			e.RunFor(2 * time.Minute) // lease expires, call requeued
			if sh.Expired.Value() != 1 {
				t.Fatalf("expired = %v", sh.Expired.Value())
			}
			if tc.lateOp(sh, c.ID) {
				t.Fatalf("late %s after expiry succeeded", tc.opName)
			}
			// The requeued call redelivers and settles normally.
			got := sh.Poll(10, nil)
			if len(got) != 1 || got[0].Attempt != 2 {
				t.Fatalf("redelivery after expiry: %v", got)
			}
			if !sh.Ack(c.ID) {
				t.Fatal("ack of the redelivered attempt failed")
			}
			if sh.Acked.Value() != 1 {
				t.Fatalf("acked = %v, want exactly one settlement", sh.Acked.Value())
			}
		})
	}
}

// TestExpiryExhaustionDeadLetters exhausts every attempt through expiry
// with varying retry budgets: the call must dead-letter exactly once and
// a late Nack after the dead-letter must be rejected.
func TestExpiryExhaustionDeadLetters(t *testing.T) {
	for _, maxAttempts := range []int{1, 2, 4} {
		e := sim.NewEngine()
		sh := newShard(e)
		sh.LeaseTimeout = time.Minute
		c := call(spec("f", maxAttempts), 0)
		sh.Enqueue(c)
		for a := 0; a < maxAttempts; a++ {
			if got := sh.Poll(10, nil); len(got) != 1 {
				t.Fatalf("maxAttempts=%d: attempt %d not delivered", maxAttempts, a+1)
			}
			e.RunFor(2 * time.Minute)
		}
		if c.State != function.StateFailed {
			t.Fatalf("maxAttempts=%d: state = %v", maxAttempts, c.State)
		}
		if sh.DeadLetters.Value() != 1 {
			t.Fatalf("maxAttempts=%d: dead letters = %v", maxAttempts, sh.DeadLetters.Value())
		}
		if sh.Nack(c.ID) {
			t.Fatalf("maxAttempts=%d: nack after dead-letter succeeded", maxAttempts)
		}
		if got := sh.Poll(10, nil); len(got) != 0 {
			t.Fatalf("maxAttempts=%d: dead-lettered call redelivered", maxAttempts)
		}
	}
}

// TestRenewDeniedWhileDownThenExpiryRedelivers (regression): a scheduler
// actively renewing cannot reach a down shard; the lease expires during
// the outage and the call redelivers after it — the at-least-once path
// the down-gated Renew creates.
func TestRenewDeniedWhileDownThenExpiryRedelivers(t *testing.T) {
	e := sim.NewEngine()
	sh := newShard(e)
	sh.LeaseTimeout = time.Minute
	c := call(spec("f", 5), 0)
	sh.Enqueue(c)
	if got := sh.Poll(1, nil); len(got) != 1 {
		t.Fatal("setup poll")
	}
	sh.SetDown(true)
	for i := 0; i < 4; i++ {
		e.RunFor(20 * time.Second)
		if sh.Renew(c.ID) {
			t.Fatal("renew succeeded against a down shard")
		}
	}
	if sh.Expired.Value() != 1 {
		t.Fatalf("lease did not expire during outage: %v", sh.Expired.Value())
	}
	sh.SetDown(false)
	got := sh.Poll(10, nil)
	if len(got) != 1 || got[0].ID != c.ID || got[0].Attempt != 2 {
		t.Fatalf("redelivery after denied renewals: %v", got)
	}
}

// TestRestartDuringReplayIsNoOp: a second Restart while the first one's
// replay is still pending (two overlapping crash-restart windows) must not
// start a second replayer and timer chain over the same journal.
func TestRestartDuringReplayIsNoOp(t *testing.T) {
	const records = 2000
	run := func(restarts int) (pending int, controls map[string]int) {
		e := sim.NewEngine()
		tr := trace.NewRecorder(e, 1, trace.DefaultParams())
		sh := newShard(e)
		sh.Obs = lifecycle.New(e, tr, nil, nil)
		sh.EnableJournal(0)
		for i := 0; i < records; i++ {
			sh.Enqueue(call(spec("f", 3), 0))
		}
		sh.Crash()
		sh.Restart()
		e.RunFor(sh.ReplayBase + 100*time.Millisecond) // two batches in
		if sh.Pending() == 0 || sh.Pending() == records {
			t.Fatalf("setup: %d of %d requeued, want mid-replay", sh.Pending(), records)
		}
		for i := 1; i < restarts; i++ {
			sh.Restart()
		}
		drainReplay(t, e, sh)
		controls = make(map[string]int)
		for _, ev := range tr.Controls() {
			controls[ev.Kind]++
		}
		return sh.Pending(), controls
	}
	wantPending, _ := run(1)
	pending, controls := run(2)
	if pending != wantPending || pending != records {
		t.Fatalf("pending = %d after a double Restart, %d after a single one, want %d", pending, wantPending, records)
	}
	if b, e := controls["durableq.replay-begin"], controls["durableq.replay-end"]; b != 1 || e != 1 {
		t.Fatalf("replay-begin ×%d, replay-end ×%d, want one pair", b, e)
	}
}
