package worker

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// TestCancelUnwindsAccounting covers the losing side of a hedged
// dispatch: Cancel must free the execution's CPU and memory, never invoke
// the completion callback, and leave the call object untouched for the
// winning copy.
func TestCancelUnwindsAccounting(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	c := testCall(testSpec("f"), 100, 50, 10.0)
	done := 0
	if !w.TryExecute(c, func(*function.Call, error) { done++ }) {
		t.Fatal("idle worker rejected call")
	}
	e.RunFor(time.Second) // mid-flight
	if w.Running() != 1 {
		t.Fatalf("running = %d", w.Running())
	}
	if !w.Cancel(c.ID) {
		t.Fatal("cancel of a running call failed")
	}
	if w.Running() != 0 {
		t.Fatalf("running = %d after cancel", w.Running())
	}
	if w.Cancelled.Value() != 1 {
		t.Fatalf("Cancelled = %v", w.Cancelled.Value())
	}
	if cpu, mem, _, _ := w.AccountingDrift(); cpu != 0 || mem != 0 {
		t.Fatalf("resource books drifted after cancel: cpu=%v mem=%v", cpu, mem)
	}
	// No completion callback, no execution-end stamp: the winner owns
	// those fields.
	e.RunFor(time.Minute)
	if done != 0 {
		t.Fatal("cancelled execution invoked its completion callback")
	}
	if c.ExecEndAt != 0 {
		t.Fatalf("cancelled call stamped ExecEndAt = %v", c.ExecEndAt)
	}
	if w.Executions.Value() != 0 {
		t.Fatalf("cancelled execution counted as completed: %v", w.Executions.Value())
	}
	// The worker is fully reusable.
	c2 := testCall(testSpec("f"), 100, 50, 1.0)
	if !w.TryExecute(c2, func(*function.Call, error) { done++ }) {
		t.Fatal("worker rejected work after cancel")
	}
	e.RunFor(time.Minute)
	if done != 1 {
		t.Fatalf("follow-up execution done = %d", done)
	}
}

// TestCancelUnknownAndSettled pins the negative paths: cancelling an
// unknown ID or an already-finished execution reports false and moves no
// counters.
func TestCancelUnknownAndSettled(t *testing.T) {
	e := sim.NewEngine()
	w := newWorker(e, DefaultParams())
	if w.Cancel(12345) {
		t.Fatal("cancel of unknown id succeeded")
	}
	c := testCall(testSpec("f"), 100, 50, 1.0)
	w.TryExecute(c, func(*function.Call, error) {})
	e.RunFor(time.Minute) // runs to completion
	if w.Cancel(c.ID) {
		t.Fatal("cancel of a settled execution succeeded")
	}
	if w.Cancelled.Value() != 0 {
		t.Fatalf("Cancelled = %v", w.Cancelled.Value())
	}
}
