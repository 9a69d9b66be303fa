package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func testSpec() *function.Spec {
	return &function.Spec{
		Name:        "fn",
		Criticality: function.CritNormal,
		Quota:       function.QuotaReserved,
	}
}

func newCall(id uint64, spec *function.Spec) *function.Call {
	return &function.Call{ID: id, Spec: spec}
}

// driveCall pushes one call through a full successful lifecycle with the
// given per-phase delays, using the engine as the clock.
func driveCall(e *sim.Engine, r *Recorder, c *function.Call, submitDelay, queue, sched, exec time.Duration) {
	c.SubmitTime = e.Now()
	c.StartAfter = e.Now()
	r.OnSubmit(c)
	e.RunFor(submitDelay)
	r.Record(c, KindEnqueue, Ref(0, 0))
	e.RunFor(queue)
	r.Record(c, KindLease, 1)
	e.RunFor(sched)
	r.Record(c, KindDispatch, Ref(0, 1))
	e.RunFor(exec)
	r.Record(c, KindExecEnd, 0)
	r.Record(c, KindAck, 0)
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	p.SampleEvery = 8
	r1 := NewRecorder(e, 42, p)
	r2 := NewRecorder(e, 42, p)
	r3 := NewRecorder(e, 43, p)
	n, hits, diff := 100000, 0, 0
	for id := uint64(1); id <= uint64(n); id++ {
		a := r1.ShouldSample(id)
		if a != r2.ShouldSample(id) {
			t.Fatalf("same seed disagrees on id %d", id)
		}
		if a != r3.ShouldSample(id) {
			diff++
		}
		if a {
			hits++
		}
	}
	want := n / 8
	if hits < want/2 || hits > want*2 {
		t.Fatalf("sample rate off: %d hits of %d, want ~%d", hits, n, want)
	}
	if diff == 0 {
		t.Fatalf("different seeds produced identical sampling decisions")
	}
}

func TestDisabledRecorderIsZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 1, DefaultParams()) // Enabled=false
	c := newCall(7, testSpec())
	allocs := testing.AllocsPerRun(1000, func() {
		r.OnSubmit(c)
		r.Record(c, KindEnqueue, 0)
		r.Record(c, KindLease, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f/op, want 0", allocs)
	}
	if c.Obs != nil {
		t.Fatalf("disabled recorder marked call sampled")
	}
	var nilRec *Recorder
	allocs = testing.AllocsPerRun(1000, func() {
		nilRec.OnSubmit(c)
		nilRec.Record(c, KindAck, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f/op, want 0", allocs)
	}
}

func TestBreakdownTelescopes(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	r := NewRecorder(e, 1, p)
	spec := testSpec()
	c := newCall(1, spec)
	driveCall(e, r, c, 50*time.Millisecond, 3*time.Second, 200*time.Millisecond, time.Second)
	tr := r.Find(1)
	if tr == nil || !tr.Done {
		t.Fatalf("trace not finalized: %+v", tr)
	}
	comp, ok := tr.Breakdown()
	if !ok {
		t.Fatalf("no breakdown for completed trace")
	}
	if comp.Sum() != tr.Latency() {
		t.Fatalf("components sum %v != e2e %v", comp.Sum(), tr.Latency())
	}
	if comp.Submit != 50*time.Millisecond || comp.Queue != 3*time.Second ||
		comp.Sched != 200*time.Millisecond || comp.Exec != time.Second || comp.Retry != 0 {
		t.Fatalf("unexpected components: %+v", comp)
	}
}

func TestBreakdownWithDeferralAndRetry(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	r := NewRecorder(e, 1, p)
	c := newCall(2, testSpec())
	c.SubmitTime = e.Now()
	c.StartAfter = 10 * time.Second // deferred execution
	r.OnSubmit(c)
	e.RunFor(time.Second)
	r.Record(c, KindEnqueue, Ref(1, 0))
	e.RunFor(12 * time.Second) // 9s deferral + 3s queue
	r.Record(c, KindLease, 1)
	e.RunFor(time.Second)
	r.Record(c, KindDispatch, Ref(1, 2))
	e.RunFor(time.Second)
	r.Record(c, KindNack, 0)
	r.Record(c, KindRetry, int64(5*time.Second))
	e.RunFor(6 * time.Second)
	r.Record(c, KindLease, 2) // retry lease
	e.RunFor(2 * time.Second)
	r.Record(c, KindDispatch, Ref(1, 3))
	e.RunFor(time.Second)
	r.Record(c, KindExecEnd, 0)
	r.Record(c, KindAck, 0)

	tr := r.Find(2)
	comp, ok := tr.Breakdown()
	if !ok {
		t.Fatalf("no breakdown")
	}
	if comp.Sum() != tr.Latency() {
		t.Fatalf("components sum %v != e2e %v", comp.Sum(), tr.Latency())
	}
	if comp.Deferred != 9*time.Second {
		t.Fatalf("deferred = %v, want 9s", comp.Deferred)
	}
	if comp.Queue != 3*time.Second {
		t.Fatalf("queue = %v, want 3s", comp.Queue)
	}
	if comp.Retry != 8*time.Second { // lease1 → lease2
		t.Fatalf("retry = %v, want 8s", comp.Retry)
	}
	if comp.Sched != 2*time.Second || comp.Exec != time.Second {
		t.Fatalf("sched/exec = %v/%v, want 2s/1s", comp.Sched, comp.Exec)
	}
	if tr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", tr.Attempts)
	}
}

// A migration is fabric transit only when it precedes the first enqueue.
// A drain moves a call that is already queued (the ledger's
// KindDrainMigrated, stored as KindMigrated): counted as transit it put
// the Migrate phase at enqueue − migration, a negative time.
func TestBreakdownMigrations(t *testing.T) {
	type step struct {
		after time.Duration
		kind  Kind
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  Components
	}{
		{"fabric migration", []step{
			{time.Second, KindMigrated}, {2 * time.Second, KindEnqueue}, {3 * time.Second, KindLease},
			{time.Second, KindDispatch}, {4 * time.Second, KindAck},
		}, Components{Submit: time.Second, Migrate: 2 * time.Second, Queue: 3 * time.Second, Sched: time.Second, Exec: 4 * time.Second}},
		{"drain migration", []step{
			{time.Second, KindEnqueue}, {2 * time.Second, KindDrainMigrated}, {3 * time.Second, KindLease},
			{time.Second, KindDispatch}, {4 * time.Second, KindAck},
		}, Components{Submit: time.Second, Queue: 5 * time.Second, Sched: time.Second, Exec: 4 * time.Second}},
		{"fabric migration, then a drain", []step{
			{time.Second, KindMigrated}, {2 * time.Second, KindEnqueue}, {time.Second, KindDrainMigrated},
			{2 * time.Second, KindLease}, {time.Second, KindDispatch}, {4 * time.Second, KindAck},
		}, Components{Submit: time.Second, Migrate: 2 * time.Second, Queue: 3 * time.Second, Sched: time.Second, Exec: 4 * time.Second}},
		{"drain migration, never leased", []step{
			{time.Second, KindEnqueue}, {2 * time.Second, KindDrainMigrated}, {3 * time.Second, KindExpired},
		}, Components{Submit: time.Second, Queue: 5 * time.Second}},
	} {
		e := sim.NewEngine()
		p := DefaultParams()
		p.Enabled = true
		r := NewRecorder(e, 1, p)
		c := newCall(1, testSpec())
		r.OnSubmit(c)
		for _, s := range tc.steps {
			e.RunFor(s.after)
			r.Record(c, s.kind, 1)
		}
		tr := r.Find(1)
		got, ok := tr.Breakdown()
		if !ok {
			t.Fatalf("%s: no breakdown", tc.name)
		}
		if got != tc.want {
			t.Errorf("%s: components %+v, want %+v", tc.name, got, tc.want)
		}
		if got.Sum() != tr.Latency() {
			t.Errorf("%s: components sum %v != e2e %v", tc.name, got.Sum(), tr.Latency())
		}
		for _, phase := range []sim.Time{got.Submit, got.Migrate, got.Deferred, got.Queue, got.Retry, got.Sched, got.Exec} {
			if phase < 0 {
				t.Errorf("%s: negative phase in %+v", tc.name, got)
			}
		}
	}
}

func TestRecentRingEvictsOldest(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	p.RingSize = 4
	r := NewRecorder(e, 1, p)
	r.slowestK = 2
	spec := testSpec()
	for id := uint64(1); id <= 10; id++ {
		c := newCall(id, spec)
		driveCall(e, r, c, 0, time.Duration(id)*time.Second, 0, time.Second)
	}
	recent := r.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, tr := range recent {
		if want := uint64(7 + i); tr.ID != want {
			t.Fatalf("ring[%d] = call %d, want %d (oldest-first)", i, tr.ID, want)
		}
	}
	slow := r.Slowest()
	if len(slow) != 2 || slow[0].ID != 10 || slow[1].ID != 9 {
		ids := []uint64{}
		for _, s := range slow {
			ids = append(ids, s.ID)
		}
		t.Fatalf("slowest = %v, want [10 9]", ids)
	}
	sampled, completed, _ := r.Stats()
	if sampled != 10 || completed != 10 {
		t.Fatalf("stats = %d/%d, want 10/10", sampled, completed)
	}
}

func TestEventCapTruncatesButFinalizes(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	r := NewRecorder(e, 1, p)
	r.maxEvents = 8
	c := newCall(1, testSpec())
	c.SubmitTime = e.Now()
	r.OnSubmit(c)
	r.Record(c, KindEnqueue, 0)
	for i := 0; i < 50; i++ {
		r.Record(c, KindLease, int64(i+1))
		r.Record(c, KindLeaseExpired, 0)
	}
	r.Record(c, KindAck, 0)
	tr := r.Find(1)
	if !tr.Done {
		t.Fatalf("terminal event must finalize a truncated trace")
	}
	if len(tr.Events) != r.maxEvents+1 { // cap + the terminal event
		t.Fatalf("events = %d, want %d", len(tr.Events), r.maxEvents+1)
	}
	if tr.Truncated == 0 {
		t.Fatalf("truncation not recorded")
	}
	_, _, dropped := r.Stats()
	if dropped == 0 {
		t.Fatalf("dropped counter not incremented")
	}
}

func TestControlRing(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 1, DefaultParams()) // control events work with tracing disabled
	r.ctrl = make([]ControlEvent, 3)
	r.Control("chaos.crash", "worker w-0-1")
	e.RunFor(time.Second)
	r.Control("breaker.open", "region 0")
	r.Control("chaos.restart", "worker w-0-1")
	r.Control("breaker.closed", "region 0")
	evs := r.Controls()
	if len(evs) != 3 {
		t.Fatalf("control ring holds %d, want 3", len(evs))
	}
	if evs[0].Seq != 2 || evs[2].Seq != 4 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if evs[0].Kind != "breaker.open" || evs[0].At != time.Second {
		t.Fatalf("unexpected first event: %+v", evs[0])
	}
	if r.ControlCount() != 4 {
		t.Fatalf("control count = %d, want 4", r.ControlCount())
	}
	var nilRec *Recorder
	nilRec.Control("x", "y") // must not panic
	if nilRec.Controls() != nil || nilRec.ControlCount() != 0 {
		t.Fatalf("nil recorder control accessors not empty")
	}
}

func TestUnsampledEventsIgnored(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	p.SampleEvery = 1 << 62 // effectively sample nothing
	r := NewRecorder(e, 1, p)
	c := newCall(5, testSpec())
	r.OnSubmit(c)
	r.Record(c, KindEnqueue, 0)
	r.Record(c, KindAck, 0)
	if c.Obs != nil || r.Active() != 0 || len(r.Recent()) != 0 {
		t.Fatalf("unsampled call left recorder state behind")
	}
}

func TestAggregateGroupsSorted(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	r := NewRecorder(e, 1, p)
	specA := &function.Spec{Name: "b-fn", Criticality: function.CritNormal}
	specB := &function.Spec{Name: "a-fn", Criticality: function.CritHigh}
	for id := uint64(1); id <= 4; id++ {
		spec := specA
		if id%2 == 0 {
			spec = specB
		}
		c := newCall(id, spec)
		driveCall(e, r, c, 0, time.Second, 0, time.Second)
	}
	aggs := Aggregate(r.Recent(), func(t *CallTrace) string { return t.Func })
	if len(aggs) != 2 || aggs[0].Key != "a-fn" || aggs[1].Key != "b-fn" {
		t.Fatalf("aggregation keys wrong: %+v", aggs)
	}
	if aggs[0].Count != 2 || aggs[0].Acked != 2 {
		t.Fatalf("counts wrong: %+v", aggs[0])
	}
	if aggs[0].MeanE2E() != 2*time.Second {
		t.Fatalf("mean e2e = %v, want 2s", aggs[0].MeanE2E())
	}
	if aggs[0].Mean().Sum() != aggs[0].MeanE2E() {
		t.Fatalf("mean components don't telescope")
	}
}

func TestChromeExportValidAndDeterministic(t *testing.T) {
	render := func() []byte {
		e := sim.NewEngine()
		p := DefaultParams()
		p.Enabled = true
		r := NewRecorder(e, 1, p)
		for id := uint64(1); id <= 3; id++ {
			c := newCall(id, testSpec())
			driveCall(e, r, c, time.Millisecond, time.Second, 10*time.Millisecond, 500*time.Millisecond)
		}
		var buf bytes.Buffer
		if err := WriteChrome(&buf, r.Recent()); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("chrome export not deterministic")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("no trace events exported")
	}
	phases := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			phases++
		}
	}
	if phases < 3*3 { // at least queue/sched/exec per call
		t.Fatalf("expected phase spans, got %d", phases)
	}
}

func TestRenderShowsTimeline(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Enabled = true
	r := NewRecorder(e, 1, p)
	c := newCall(9, testSpec())
	driveCall(e, r, c, 0, time.Second, 0, time.Second)
	out := r.Find(9).Render()
	for _, want := range []string{"call 9", "enqueue", "lease", "dispatch", "ack", "e2e=2s"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
