package invariant

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
)

func newTestChecker(t *testing.T) (*sim.Engine, *Checker) {
	t.Helper()
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true, Interval: 0}, 3)
	if k == nil {
		t.Fatal("enabled checker is nil")
	}
	return engine, k
}

func call(id uint64, name string, region int) *function.Call {
	return &function.Call{
		ID:           id,
		Spec:         &function.Spec{Name: name},
		SourceRegion: cluster.RegionID(region),
	}
}

// drive walks one call through the happy path up to the given stage.
func drive(k *Checker, c *function.Call, stage string) {
	k.OnSubmit(c)
	if stage == "submitted" {
		return
	}
	k.OnEnqueue(c)
	if stage == "queued" {
		return
	}
	c.Attempt++
	k.OnLease(c)
	if stage == "leased" {
		return
	}
	k.OnDispatch(c, 0, 0)
	if stage == "running" {
		return
	}
	k.OnComplete(c, 0, 0)
	if stage == "completed" {
		return
	}
	k.OnAck(c)
}

func wantViolation(t *testing.T, k *Checker, name string) {
	t.Helper()
	for _, v := range k.Violations() {
		if v.Name == name {
			return
		}
	}
	t.Fatalf("no %q violation; got %v", name, k.Violations())
}

func wantClean(t *testing.T, k *Checker) {
	t.Helper()
	if n := k.TotalViolations(); n != 0 {
		t.Fatalf("%d violations on a legal history: %v", n, k.Violations())
	}
}

func TestNilCheckerIsSafe(t *testing.T) {
	var k *Checker
	c := call(1, "f", 0)
	k.OnSubmit(c)
	k.OnEnqueue(c)
	k.OnLease(c)
	k.OnDispatch(c, 0, 0)
	k.OnComplete(c, 0, 0)
	k.OnAck(c)
	k.On(c, trace.KindNack, 0)
	k.On(c, trace.KindLeaseExpired, 0)
	k.On(c, trace.KindRetry, 0)
	k.On(c, trace.KindDeadLetter, 0)
	k.On(c, trace.KindDropped, 0)
	k.Note("x", "y")
	k.RegisterProbe("p", func(sim.Time) []string { return []string{"boom"} })
	if k.Enabled() || k.Final() != nil || k.Violations() != nil ||
		k.TotalViolations() != 0 || k.LateEvents() != 0 || k.Evals() != 0 {
		t.Fatal("nil checker leaked state")
	}
	if (k.Totals() != Tally{}) {
		t.Fatal("nil checker has totals")
	}
	k.EachFunc(func(string, Tally) { t.Fatal("nil checker visited a func") })
	k.EachRegion(func(int, Tally) { t.Fatal("nil checker visited a region") })
}

func TestDisabledParamsReturnNil(t *testing.T) {
	if k := NewChecker(sim.NewEngine(), Params{}, 1); k != nil {
		t.Fatal("disabled params produced a live checker")
	}
}

func TestHappyPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	drive(k, call(1, "f", 0), "acked")
	wantClean(t, k)
	tot := k.Totals()
	if tot.Submitted != 1 || tot.Acked != 1 || tot.InFlight != 0 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestRetryPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 1)
	drive(k, c, "running")
	k.On(c, trace.KindNack, 0)
	k.On(c, trace.KindRetry, 0)
	c.Attempt++
	k.OnLease(c)
	k.OnDispatch(c, 1, 2)
	k.OnComplete(c, 1, 2)
	k.OnAck(c)
	wantClean(t, k)
}

func TestDeadLetterPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 2)
	drive(k, c, "running")
	k.On(c, trace.KindLeaseExpired, 0)
	k.On(c, trace.KindDeadLetter, 0)
	wantClean(t, k)
	tot := k.Totals()
	if tot.DeadLettered != 1 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestDropPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	k.OnSubmit(c)
	k.On(c, trace.KindDropped, 0)
	wantClean(t, k)
	if tot := k.Totals(); tot.Dropped != 1 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestDuplicateIDViolates(t *testing.T) {
	_, k := newTestChecker(t)
	k.OnSubmit(call(7, "f", 0))
	k.OnSubmit(call(7, "g", 0))
	wantViolation(t, k, "duplicate-call-id")
}

func TestLeaseExclusivityViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.OnDispatch(c, 0, 1) // second dispatch with no settle in between
	wantViolation(t, k, "lease-exclusivity")
}

func TestAttemptMonotonicityViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.On(c, trace.KindNack, 0)
	k.On(c, trace.KindRetry, 0)
	k.OnLease(c) // same attempt number again
	wantViolation(t, k, "attempt-not-monotone")
}

func TestDropAfterPersistenceViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "queued")
	k.On(c, trace.KindDropped, 0)
	wantViolation(t, k, "drop-from-queued")
}

func TestDoubleCompleteSameWorkerViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "completed")
	k.OnComplete(c, 0, 0) // the same execution completing twice
	wantViolation(t, k, "complete-from-completed")
}

func TestStaleCompletionTolerated(t *testing.T) {
	// At-least-once overlap: the lease expires mid-execution, the call is
	// redelivered and dispatched to another worker, then the superseded
	// execution completes. No violation — but counted.
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running") // running on w-0-0
	k.On(c, trace.KindLeaseExpired, 0)
	k.On(c, trace.KindRetry, 0)
	c.Attempt++
	k.OnLease(c)
	k.OnDispatch(c, 0, 5) // redelivered to w-0-5
	k.OnComplete(c, 0, 0) // stale completion from w-0-0
	k.OnComplete(c, 0, 5) // real completion
	k.OnAck(c)
	wantClean(t, k)
	if k.LateEvents() != 1 {
		t.Fatalf("late events = %d, want 1", k.LateEvents())
	}
}

func TestPostTerminalEventsTolerated(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "acked")
	k.OnComplete(c, 0, 0)
	k.OnAck(c)
	k.On(c, trace.KindNack, 0)
	wantClean(t, k)
	if k.LateEvents() != 3 {
		t.Fatalf("late events = %d, want 3", k.LateEvents())
	}
}

func TestEarlyAckTolerated(t *testing.T) {
	// The shard's ack is authoritative: a superseded execution's ack can
	// settle the call while a redelivered attempt is still leased.
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.On(c, trace.KindLeaseExpired, 0)
	k.On(c, trace.KindRetry, 0)
	c.Attempt++
	k.OnLease(c)
	k.OnAck(c) // stale scheduler acks the redelivered lease
	wantClean(t, k)
	if tot := k.Totals(); tot.Acked != 1 || tot.InFlight != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestLocalityCheckRuns(t *testing.T) {
	_, k := newTestChecker(t)
	k.LocalityCheck = func(c *function.Call, region, worker int) string {
		if worker == 9 {
			return "w-9 outside group"
		}
		return ""
	}
	c := call(1, "f", 0)
	drive(k, c, "leased")
	k.OnDispatch(c, 0, 9)
	wantViolation(t, k, "locality")
}

func TestProbesRunOnIntervalAndFinal(t *testing.T) {
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true, Interval: time.Minute}, 1)
	fired := 0
	k.RegisterProbe("always", func(now sim.Time) []string {
		fired++
		return []string{"tick"}
	})
	engine.RunFor(3 * time.Minute)
	if fired != 3 {
		t.Fatalf("probe fired %d times in 3 minutes, want 3", fired)
	}
	vs := k.Final()
	if fired != 4 {
		t.Fatalf("Final did not evaluate (fired=%d)", fired)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 4", len(vs))
	}
	for _, v := range vs {
		if v.Name != "always" || v.Detail != "tick" {
			t.Fatalf("bad violation %+v", v)
		}
	}
}

func TestMaxViolationsBounds(t *testing.T) {
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true}, 1)
	k.violationCap = 3
	for i := uint64(1); i <= 10; i++ {
		k.OnSubmit(call(5, "f", 0)) // duplicate IDs after the first
	}
	if got := len(k.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want 3", got)
	}
	if got := k.TotalViolations(); got != 9 {
		t.Fatalf("total %d violations, want 9", got)
	}
}

func TestNoteAttachesContext(t *testing.T) {
	_, k := newTestChecker(t)
	k.Note("chaos.crash", "worker w-0-3")
	k.OnSubmit(call(1, "f", 0))
	k.OnSubmit(call(1, "f", 0))
	vs := k.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Context, "chaos.crash") {
		t.Fatalf("context not attached: %+v", vs)
	}
	if !strings.Contains(vs[0].String(), "during chaos.crash") {
		t.Fatalf("String() omits context: %s", vs[0])
	}
}

func TestPerFuncAndPerRegionTallies(t *testing.T) {
	_, k := newTestChecker(t)
	drive(k, call(1, "a", 0), "acked")
	drive(k, call(2, "a", 1), "running")
	drive(k, call(3, "b", 2), "acked")
	funcs := map[string]Tally{}
	k.EachFunc(func(name string, t Tally) { funcs[name] = t })
	if funcs["a"].Submitted != 2 || funcs["a"].Acked != 1 || funcs["a"].InFlight != 1 {
		t.Fatalf("func a tally %+v", funcs["a"])
	}
	if funcs["b"].Acked != 1 || funcs["b"].Gap() != 0 {
		t.Fatalf("func b tally %+v", funcs["b"])
	}
	regions := map[int]Tally{}
	k.EachRegion(func(r int, t Tally) { regions[r] = t })
	if regions[0].Acked != 1 || regions[1].InFlight != 1 || regions[2].Acked != 1 {
		t.Fatalf("region tallies %+v", regions)
	}
}

func TestViolationStringFormat(t *testing.T) {
	v := Violation{At: 90 * time.Second, Name: "lease-exclusivity", CallID: 42, Detail: "d"}
	s := v.String()
	for _, want := range []string{"lease-exclusivity", "call=42", "d"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
}

func TestMigrateOutFromSubmittedIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	k.OnSubmit(c)
	k.On(c, trace.KindMigrated, 0)
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedOut != 1 || tt.InFlight != 0 {
		t.Fatalf("totals after migrate-out: %+v", tt)
	}
	if tt.Gap() != 0 {
		t.Fatalf("gap %+d after clean migrate-out", tt.Gap())
	}
}

func TestMigrateInEntersLikeSubmission(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(7, "f", 1)
	k.On(c, trace.KindMigrateIn, 0)
	drive2 := func() {
		k.OnEnqueue(c)
		c.Attempt++
		k.OnLease(c)
		k.OnDispatch(c, 0, 0)
		k.OnComplete(c, 0, 0)
		k.OnAck(c)
	}
	drive2()
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedIn != 1 || tt.Acked != 1 || tt.Submitted != 0 {
		t.Fatalf("totals after migrate-in lifecycle: %+v", tt)
	}
	if tt.Gap() != 0 {
		t.Fatalf("gap %+d after migrated call settled", tt.Gap())
	}
}

func TestMigrateOutAfterPersistenceViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(2, "f", 0)
	drive(k, c, "queued")
	k.On(c, trace.KindMigrated, 0)
	wantViolation(t, k, "migrate-from-queued")
}

func TestMigrateOutUnknownViolates(t *testing.T) {
	_, k := newTestChecker(t)
	k.On(call(3, "f", 0), trace.KindMigrated, 0)
	wantViolation(t, k, "migrate-unknown")
}

func TestMigrateInDuplicateViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(4, "f", 0)
	k.OnSubmit(c)
	k.On(c, trace.KindMigrateIn, 0)
	wantViolation(t, k, "duplicate-call-id")
}

func TestMigrateNilCheckerIsSafe(t *testing.T) {
	var k *Checker
	c := call(5, "f", 0)
	k.On(c, trace.KindMigrated, 0)
	k.On(c, trace.KindMigrateIn, 0)
	if k.Totals() != (Tally{}) {
		t.Fatal("nil checker has totals")
	}
}

func TestMigratedInCanBeDropped(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(6, "f", 0)
	k.On(c, trace.KindMigrateIn, 0)
	k.On(c, trace.KindDropped, 0)
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedIn != 1 || tt.Dropped != 1 || tt.Gap() != 0 {
		t.Fatalf("totals after migrate-in drop: %+v (gap %+d)", tt, tt.Gap())
	}
}

// TestEveryKindIsClassed walks the whole trace.Kind space: each kind must
// be listed here as ledger-relevant or trace-only, and On must agree — a
// ledger kind observably touches the ledger even for a call it never saw
// (a tally moves, a late event or a violation is booked), a trace-only
// kind touches nothing, and none falls through to unmapped-kind. A kind
// added to trace without a decision here and in On fails this test.
func TestEveryKindIsClassed(t *testing.T) {
	ledger := map[trace.Kind]bool{
		trace.KindSubmit: true, trace.KindEnqueue: true, trace.KindLease: true,
		trace.KindLeaseExpired: true, trace.KindDispatch: true, trace.KindComplete: true,
		trace.KindHedgeDispatch: true, trace.KindHedgeWin: true, trace.KindHedgeCancel: true,
		trace.KindNack: true, trace.KindRetry: true, trace.KindRelease: true,
		trace.KindAck: true, trace.KindDeadLetter: true, trace.KindExpired: true,
		trace.KindShed: true, trace.KindBudgetExhausted: true, trace.KindDropped: true,
		trace.KindLost: true, trace.KindRecovered: true, trace.KindMigrated: true,
		trace.KindMigrateIn: true, trace.KindDrainMigrated: true,

		trace.KindRoute: false, trace.KindScheduled: false, trace.KindQuotaDenied: false,
		trace.KindCongestionDenied: false, trace.KindIsolationDenied: false,
		trace.KindExecStart: false, trace.KindExecEnd: false, trace.KindDownstreamRetry: false,
		trace.KindBackpressure: false, trace.KindSLOMiss: false, trace.KindEvacuated: false,
	}
	if len(ledger) != int(trace.NumKinds) {
		t.Fatalf("%d kinds classed, trace has %d", len(ledger), trace.NumKinds)
	}
	for kind := trace.Kind(0); kind < trace.NumKinds; kind++ {
		want, ok := ledger[kind]
		if !ok {
			t.Errorf("kind %d (%s) is not classed", kind, kind)
			continue
		}
		_, k := newTestChecker(t)
		k.On(call(1, "f", 0), kind, 0)
		for _, v := range k.Violations() {
			if v.Name == "unmapped-kind" {
				t.Errorf("%s: On has no case for it", kind)
			}
		}
		touched := k.Totals() != (Tally{}) || k.LateEvents() != 0 || k.TotalViolations() != 0
		if touched != want {
			t.Errorf("%s: classed ledger=%v but On touched the ledger=%v", kind, want, touched)
		}
	}
	_, k := newTestChecker(t)
	k.On(call(1, "f", 0), trace.NumKinds, 0)
	wantViolation(t, k, "unmapped-kind")
}
