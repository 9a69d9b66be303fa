package submitter

import (
	"errors"
	"testing"
	"time"

	"xfaas/internal/function"
)

// TestCrashLosesOnlyUnflushedWindow: a submitter crash destroys exactly
// the batch buffer — calls accepted since the last flush — and nothing
// already persisted to a shard.
func TestCrashLosesOnlyUnflushedWindow(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams()) // batches below batchSize: only the interval flushes

	var flushed, buffered []*function.Call
	for i := 0; i < 5; i++ {
		c := &function.Call{Spec: subSpec()}
		f.sub.Submit("c", c)
		flushed = append(flushed, c)
	}
	f.engine.RunFor(FlushInterval + time.Millisecond) // persists the first window
	for i := 0; i < 3; i++ {
		c := &function.Call{Spec: subSpec()}
		f.sub.Submit("c", c)
		buffered = append(buffered, c)
	}

	f.sub.Crash()
	if f.sub.LostOnCrash.Value() != 3 {
		t.Fatalf("lost = %v, want the 3 unflushed calls", f.sub.LostOnCrash.Value())
	}
	for _, c := range buffered {
		if c.State != function.StateFailed {
			t.Fatalf("buffered call %d not terminally lost: %v", c.ID, c.State)
		}
	}
	if f.shard.Pending() != 5 {
		t.Fatalf("flushed calls disturbed: shard pending = %d", f.shard.Pending())
	}
	for _, c := range flushed {
		if c.State != function.StateQueued {
			t.Fatalf("flushed call %d state = %v", c.ID, c.State)
		}
	}
}

func TestCrashedSubmitterRejectsUntilRestart(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	f.sub.Crash()
	if !f.sub.IsDown() {
		t.Fatal("IsDown after crash")
	}
	if err := f.sub.Submit("c", &function.Call{Spec: subSpec()}); !errors.Is(err, ErrDown) {
		t.Fatalf("submit to crashed submitter: err = %v, want ErrDown", err)
	}
	if f.sub.Submitted.Value() != 0 {
		t.Fatalf("rejected submission counted: %v", f.sub.Submitted.Value())
	}

	f.sub.Restart(2 * time.Second)
	f.engine.RunFor(time.Second)
	if err := f.sub.Submit("c", &function.Call{Spec: subSpec()}); !errors.Is(err, ErrDown) {
		t.Fatal("submitter accepted before the rebuild delay elapsed")
	}
	f.engine.RunFor(time.Second + time.Millisecond)
	if err := f.sub.Submit("c", &function.Call{Spec: subSpec()}); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	f.sub.Flush()
	if f.shard.Pending() != 1 {
		t.Fatalf("post-restart call not persisted: pending = %d", f.shard.Pending())
	}
}

// TestFlushTickerSilentWhileDown: the owner keeps calling Flush on its
// grid through the outage; those flushes must not resurrect the wiped
// buffer or double-report anything.
func TestFlushTickerSilentWhileDown(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	f.sub.Submit("c", &function.Call{Spec: subSpec()})
	f.sub.Crash()
	f.engine.RunFor(time.Second) // many flush ticks while down
	if f.shard.Pending() != 0 {
		t.Fatalf("a flush while down persisted a lost call: pending = %d", f.shard.Pending())
	}
	if f.sub.Batches.Value() != 0 {
		t.Fatalf("batches flushed while down: %v", f.sub.Batches.Value())
	}
}
