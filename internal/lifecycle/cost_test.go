package lifecycle

import (
	"testing"

	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

// The cost model these tests pin: an observed call costs one allocation —
// the observer record that rides on it — and each of its transitions a
// pointer load and an array store, whichever observers are on; an
// unobserved call costs nothing.

// firstTimeSuccess is the lifecycle of a call that succeeds first time:
// ten transitions, nine of them stored in its trace.
var firstTimeSuccess = [...]struct {
	kind trace.Kind
	arg  int64
}{
	{trace.KindSubmit, 0}, {trace.KindRoute, 0}, {trace.KindEnqueue, trace.Ref(0, 1)},
	{trace.KindLease, 1}, {trace.KindScheduled, 0}, {trace.KindDispatch, trace.Ref(0, 3)},
	{trace.KindExecStart, 0}, {trace.KindExecEnd, 0}, {trace.KindComplete, trace.Ref(0, 3)},
	{trace.KindAck, 0},
}

func emitLifecycle(s *Spine, c *function.Call) {
	c.Attempt = 1
	for _, ev := range firstTimeSuccess {
		s.Emit(c, ev.kind, ev.arg)
	}
}

func costCalls(n int) []*function.Call {
	spec := &function.Spec{Name: "fn", Criticality: function.CritNormal}
	calls := make([]*function.Call, n)
	for i := range calls {
		calls[i] = &function.Call{ID: uint64(i + 1), Spec: spec}
	}
	return calls
}

func TestObservedCallIsOneAllocation(t *testing.T) {
	const runs = 1000
	_, on, tr, inv, _ := observed()
	e := sim.NewEngine()
	off := New(e, trace.NewRecorder(e, 1, trace.DefaultParams()), nil, nil)
	for name, tc := range map[string]struct {
		s    *Spine
		want float64
	}{"all three observers": {on, 1}, "observers off": {off, 0}} {
		// The first calls fill what is allocated once per run, not per
		// call: the function's tally, the slowest-K heap.
		calls := costCalls(64 + runs + 1)
		for _, c := range calls[:64] {
			emitLifecycle(tc.s, c)
		}
		next := 64
		allocs := testing.AllocsPerRun(runs, func() {
			emitLifecycle(tc.s, calls[next])
			next++
		})
		if allocs != tc.want {
			t.Errorf("%s: %.1f allocations per first-time success, want %.0f", name, allocs, tc.want)
		}
	}
	if n := inv.TotalViolations(); n != 0 {
		t.Fatalf("the pinned lifecycle is not legal: %v", inv.Violations())
	}
	if got := len(tr.Find(70).Events); got != 9 {
		t.Fatalf("a first-time success stores %d events, want the 9 a record holds inline", got)
	}
}

func BenchmarkSpineEmit(b *testing.B) {
	_, s, _, _, _ := observed()
	calls := costCalls(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range calls {
		emitLifecycle(s, c)
	}
}
