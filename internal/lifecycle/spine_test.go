package lifecycle

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

func testCall(id uint64) *function.Call {
	return &function.Call{ID: id, Spec: &function.Spec{Name: "fn", Criticality: function.CritNormal}}
}

// observed builds a spine with all three consumers live.
func observed() (*sim.Engine, *Spine, *trace.Recorder, *invariant.Checker, *slo.Engine) {
	e := sim.NewEngine()
	tp := trace.DefaultParams()
	tp.Enabled = true
	tr := trace.NewRecorder(e, 1, tp)
	inv := invariant.NewChecker(e, invariant.Params{Enabled: true}, 1)
	eng := slo.NewEngine(stats.NewRegistry(), config.DefaultObserve().EnableAll(), tr.Control)
	return e, New(e, tr, inv, eng), tr, inv, eng
}

// One emit per transition reaches all three consumers: the trace gets the
// span, the ledger moves, and a dead letter is an SLO miss.
func TestEmitFansOut(t *testing.T) {
	e, s, tr, inv, eng := observed()
	ok, dead := testCall(1), testCall(2)
	for _, c := range []*function.Call{ok, dead} {
		s.Emit(c, trace.KindSubmit, 0)
		s.Emit(c, trace.KindEnqueue, trace.Ref(0, 0))
		c.Attempt++
		s.Emit(c, trace.KindLease, int64(c.Attempt))
		s.Emit(c, trace.KindDispatch, trace.Ref(0, 3))
		e.RunFor(time.Second)
		s.Emit(c, trace.KindComplete, trace.Ref(0, 3))
	}
	s.Emit(ok, trace.KindAck, 0)
	s.Emit(dead, trace.KindNack, 0)
	s.Emit(dead, trace.KindDeadLetter, int64(dead.Attempt))

	if vs := inv.Violations(); len(vs) != 0 {
		t.Fatalf("clean lifecycle flagged: %v", vs)
	}
	tot := inv.Totals()
	if tot.Submitted != 2 || tot.Acked != 1 || tot.Exhausted != 1 || tot.InFlight != 0 || tot.Gap() != 0 {
		t.Fatalf("ledger did not follow the emits: %+v", tot)
	}
	tt := tr.Find(1)
	if tt == nil || !tt.Done || tt.Outcome != trace.KindAck {
		t.Fatalf("trace of the acked call: %+v", tt)
	}
	for _, ev := range tt.Events {
		if ev.Kind == trace.KindComplete {
			t.Fatalf("ledger-only kind stored in a trace:\n%s", tt.Render())
		}
	}
	if dt := tr.Find(2); dt == nil || dt.Outcome != trace.KindDeadLetter {
		t.Fatalf("trace of the dead-lettered call: %+v", dt)
	}
	snap := eng.Snapshot(e.Now())
	var bad float64
	for _, c := range snap.Classes {
		bad += c.Bad
	}
	if bad != 1 {
		t.Fatalf("SLO engine saw %v dead letters, want 1", bad)
	}
}

// The transitions that share a span with an older kind keep their trace
// rendering (a release reads as a zero-backoff retry, a drain migration
// as migrated) while the ledger takes the distinct hook.
func TestSharedSpanKinds(t *testing.T) {
	_, s, tr, inv, _ := observed()
	c := testCall(1)
	s.Emit(c, trace.KindSubmit, 0)
	s.Emit(c, trace.KindEnqueue, trace.Ref(0, 0))
	s.Emit(c, trace.KindDrainMigrated, trace.Ref(1, 0)) // legal while queued
	c.Attempt++
	s.Emit(c, trace.KindLease, 1)
	s.Emit(c, trace.KindRelease, 0) // leased → queued, no settle detour
	c.Attempt++
	s.Emit(c, trace.KindLease, 2)
	if vs := inv.Violations(); len(vs) != 0 {
		t.Fatalf("release / drain-migrate flagged: %v", vs)
	}
	var kinds []string
	for _, ev := range tr.Find(1).Events {
		kinds = append(kinds, ev.Kind.String())
	}
	if got, want := strings.Join(kinds, " "), "submit enqueue migrated lease retry lease"; got != want {
		t.Fatalf("trace kinds %q, want %q", got, want)
	}
	// The same trace kinds through their original ledger hooks are breaches:
	// a retry needs a settle first, a fabric migration is pre-persistence.
	s.Emit(c, trace.KindRetry, 0)
	s.Emit(c, trace.KindMigrated, 0)
	if n := inv.TotalViolations(); n != 2 {
		t.Fatalf("retry-from-leased and migrate-from-leased not both flagged: %v", inv.Violations())
	}
}

// Control and Note reach the recorder's control log and the checker's
// violation context.
func TestControlAndNote(t *testing.T) {
	_, s, tr, inv, _ := observed()
	s.Control("drain.begin", "r0")
	s.Note("drain", "r0")
	if cs := tr.Controls(); len(cs) != 1 || cs[0].Kind != "drain.begin" {
		t.Fatalf("control log: %+v", cs)
	}
	s.Emit(testCall(9), trace.KindEnqueue, 0) // enqueue-unknown
	if vs := inv.Violations(); len(vs) != 1 || vs[0].Context != "drain r0" {
		t.Fatalf("violation context: %+v", vs)
	}
}

// The zero-cost contract of the hot path (the lifecycle twin of trace's
// TestDisabledRecorderIsZeroAlloc): a nil spine, and a spine whose
// consumers are all off, neither allocate nor mark the call.
func TestUnobservedEmitIsZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	off := New(e, trace.NewRecorder(e, 1, trace.DefaultParams()), nil, nil)
	var nilSpine *Spine
	c := testCall(7)
	for name, s := range map[string]*Spine{"nil": nilSpine, "all-off": off} {
		allocs := testing.AllocsPerRun(1000, func() {
			s.Emit(c, trace.KindSubmit, 0)
			s.Emit(c, trace.KindEnqueue, trace.Ref(0, 0))
			s.Emit(c, trace.KindDeadLetter, 1)
		})
		if allocs != 0 {
			t.Errorf("%s spine allocates %.1f/op, want 0", name, allocs)
		}
	}
	if c.Obs != nil {
		t.Fatal("unobserved spine marked the call sampled")
	}
	nilSpine.Control("k", "d")
	nilSpine.Note("k", "d")
	off.Note("k", "d") // nil checker behind a live spine
}
