package trace

// The reference recorder: the map-backed Recorder this package had before
// per-call state moved onto the call's observer record, kept verbatim as
// the oracle the differential test and FuzzRecorderMatchesReference
// compare Recorder against. Two mechanical substitutions: the type is
// renamed, and the Sampled flag function.Call no longer has lives in a set
// the test shares between the recorders a call visits (c.Sampled was one
// flag per call object, copied by a hedge clone). It holds every in-flight
// trace in active, keyed by call ID. The control log is dropped.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// refSampled stands in for the old function.Call.Sampled.
type refSampled map[*function.Call]bool

type refRecorder struct {
	engine              *sim.Engine
	params              Params
	seed                uint64
	slowestK, maxEvents int
	flagged             refSampled

	mu     sync.Mutex
	active map[uint64]*CallTrace
	recent []*CallTrace // ring; next is the write position
	next   int
	filled bool
	slow   slowHeap // min-heap over latency, size <= slowestK

	sampled   uint64
	completed uint64
	dropped   uint64
}

// newRefRecorder takes rec's params, already normalized by NewRecorder,
// and its retention bounds.
func newRefRecorder(engine *sim.Engine, seed uint64, rec *Recorder, flagged refSampled) *refRecorder {
	p := rec.Params()
	return &refRecorder{
		engine:    engine,
		params:    p,
		seed:      seed,
		slowestK:  rec.slowestK,
		maxEvents: rec.maxEvents,
		flagged:   flagged,
		active:    make(map[uint64]*CallTrace),
		recent:    make([]*CallTrace, p.RingSize),
	}
}

// ShouldSample reports the head-sampling decision for a call ID — a pure
// function of (seed, id), so every replica of a seeded run samples the
// same calls.
func (r *refRecorder) ShouldSample(id uint64) bool {
	if r.params.SampleEvery <= 1 {
		return true
	}
	return mix(r.seed^id*0x9E3779B97F4A7C15)%r.params.SampleEvery == 0
}

// OnSubmit makes the sampling decision for a newly admitted call and, if
// selected, opens its trace with a submit event. Call after the ID and
// submit time are stamped.
func (r *refRecorder) OnSubmit(c *function.Call) {
	if r == nil || !r.params.Enabled {
		return
	}
	if !r.ShouldSample(c.ID) {
		return
	}
	r.flagged[c] = true
	t := &CallTrace{
		ID:         c.ID,
		Func:       c.Spec.Name,
		Crit:       c.Spec.Criticality,
		Quota:      c.Spec.Quota,
		Region:     c.SourceRegion,
		SubmitAt:   c.SubmitTime,
		StartAfter: c.StartAfter,
		Events:     make([]Event, 0, 8),
	}
	t.Events = append(t.Events, Event{At: c.SubmitTime, Kind: KindSubmit})
	r.mu.Lock()
	r.active[c.ID] = t
	r.sampled++
	r.mu.Unlock()
}

// Record appends one lifecycle event to a sampled call's trace. Unsampled
// calls return immediately without taking the lock (the zero-alloc,
// near-zero-cost disabled path). Terminal kinds finalize the trace;
// ledger-only kinds are stored as their span's kind or skipped.
func (r *refRecorder) Record(c *function.Call, k Kind, arg int64) {
	if r == nil || !r.flagged[c] {
		return
	}
	k, ok := k.span()
	if !ok {
		return
	}
	r.mu.Lock()
	t, ok := r.active[c.ID]
	if !ok {
		r.mu.Unlock()
		return
	}
	if len(t.Events) >= r.maxEvents && !k.Terminal() {
		t.Truncated++
		r.dropped++
		r.mu.Unlock()
		return
	}
	t.Events = append(t.Events, Event{At: r.engine.Now(), Kind: k, Arg: arg})
	if k == KindLease && int(arg) > t.Attempts {
		t.Attempts = int(arg)
	}
	if k.Terminal() {
		r.finalize(t, k)
	}
	r.mu.Unlock()
}

// finalize moves a trace from active to the retention buffers. Caller
// holds r.mu.
func (r *refRecorder) finalize(t *CallTrace, outcome Kind) {
	delete(r.active, t.ID)
	t.Done = true
	t.Outcome = outcome
	t.EndAt = r.engine.Now()
	r.completed++
	r.recent[r.next] = t
	r.next++
	if r.next == len(r.recent) {
		r.next = 0
		r.filled = true
	}
	if r.slowestK > 0 {
		if len(r.slow) < r.slowestK {
			r.slow.push(t)
		} else if slowLess(r.slow[0], t) {
			r.slow[0] = t
			r.slow.down(0)
		}
	}
}

// Extract removes and returns a call's in-flight trace, handing
// ownership to the caller — the migration path: the source partition's
// recorder extracts the trace on its own goroutine before the call
// crosses the fabric, and the destination Adopts it at delivery time.
// Returns nil when the call has no in-flight trace here.
func (r *refRecorder) Extract(id uint64) *CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.active[id]
	if !ok {
		return nil
	}
	delete(r.active, id)
	r.sampled--
	return t
}

// Adopt takes ownership of a trace extracted from another recorder,
// continuing it as if it had been opened here. Per-partition ID
// namespaces guarantee no collision with a locally opened trace.
func (r *refRecorder) Adopt(t *CallTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.active[t.ID] = t
	r.sampled++
	r.mu.Unlock()
}

// Recent returns the completed-trace ring, oldest first.
func (r *refRecorder) Recent() []*CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*CallTrace
	if r.filled {
		out = make([]*CallTrace, 0, len(r.recent))
		out = append(out, r.recent[r.next:]...)
		out = append(out, r.recent[:r.next]...)
		return out
	}
	return append(out, r.recent[:r.next]...)
}

// Slowest returns up to slowestK completed traces, slowest first; ties
// break on ascending call ID.
func (r *refRecorder) Slowest() []*CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*CallTrace, len(r.slow))
	copy(out, r.slow)
	r.mu.Unlock()
	// Sort descending by latency, ascending ID on ties (n <= slowestK).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && slowLess(out[j-1], out[j]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Find returns the trace for a call ID: in-flight, recent, or retained
// slowest. Nil when the call was not sampled or has been evicted.
func (r *refRecorder) Find(id uint64) *CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.active[id]; ok {
		return t
	}
	for _, t := range r.recent {
		if t != nil && t.ID == id {
			return t
		}
	}
	for _, t := range r.slow {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Active returns the number of in-flight sampled traces.
func (r *refRecorder) Active() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.active)
}

// Stats returns lifetime counters: traces opened, traces completed, and
// events dropped by the per-call cap.
func (r *refRecorder) Stats() (sampled, completed, dropped uint64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampled, r.completed, r.dropped
}

// tracer is what the differential test drives and compares on both
// recorders; handing a trace from one recorder to another is spelled
// differently by each and lives in traceWorld.move.
type tracer interface {
	OnSubmit(c *function.Call)
	Record(c *function.Call, k Kind, arg int64)
	Recent() []*CallTrace
	Slowest() []*CallTrace
	Find(id uint64) *CallTrace
	Active() int
	Stats() (sampled, completed, dropped uint64)
}

// traceWorld is one side of the differential run: two recorders (two
// partitions') on one clock and a pool of calls, each with at most one
// hedge clone.
type traceWorld struct {
	e      *sim.Engine
	rs     [2]tracer
	calls  []*function.Call
	clones []*function.Call
	// move takes call c's trace off recorder from and hands it to recorder
	// to, the way psim's fabric does.
	move func(c *function.Call, from, to int)
}

const tracePool = 10

func newTraceWorld() *traceWorld {
	w := &traceWorld{e: sim.NewEngine(), calls: make([]*function.Call, tracePool), clones: make([]*function.Call, tracePool)}
	specs := []*function.Spec{testSpec(), {Name: "other", Criticality: function.CritHigh, Quota: function.QuotaOpportunistic}}
	for i := range w.calls {
		w.calls[i] = &function.Call{Spec: specs[i%2], SourceRegion: cluster.RegionID(i % 3)}
	}
	return w
}

// snapshot renders everything a recorder reports, and its trace of every
// call ID in use.
func (w *traceWorld) snapshot(h int, ids uint64) string {
	r := w.rs[h]
	var b strings.Builder
	sampled, completed, dropped := r.Stats()
	fmt.Fprintf(&b, "sampled %d completed %d dropped %d active %d\nrecent\n", sampled, completed, dropped, r.Active())
	for _, t := range r.Recent() {
		b.WriteString(t.Render())
	}
	b.WriteString("slowest\n")
	for _, t := range r.Slowest() {
		b.WriteString(t.Render())
	}
	for id := uint64(1); id <= ids; id++ {
		if t := r.Find(id); t != nil {
			fmt.Fprintf(&b, "find %d attempts %d\n%s", id, t.Attempts, t.Render())
		}
	}
	return b.String()
}

// traceKinds is what the program records: every kind a trace stores,
// terminals included, and the ledger-only kinds that are stored as another
// kind or skipped.
var traceKinds = [...]Kind{
	KindRoute, KindEnqueue, KindLease, KindLease, KindLeaseExpired, KindScheduled,
	KindQuotaDenied, KindDispatch, KindExecStart, KindExecEnd, KindEvacuated,
	KindNack, KindRetry, KindRecovered, KindMigrated, KindHedgeDispatch,
	KindRelease, KindDrainMigrated, KindComplete, KindMigrateIn,
	KindAck, KindDeadLetter, KindDropped, KindLost, KindExpired, KindShed, KindBudgetExhausted,
}

// runRecordersAgainstReference interprets prog as a tracing program over
// the call pool, applies every step to a world of Recorders and a world of
// refRecorders, and compares everything both report after each step. It
// returns the number of steps compared.
//
// Two things a record riding on the call cannot express are left out: a
// trace open in two recorders at once (a call is submitted only where it
// lives, and moves only by Extract then Adopt), and a hedge clone that
// outlives a resubmission of its primary (the clone keeps the old record).
func runRecordersAgainstReference(t testing.TB, prog []byte) int {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	p := DefaultParams()
	p.Enabled = true
	p.SampleEvery = []uint64{1, 1, 7}[next()%3]
	p.RingSize = []int{3, 12}[next()%2]
	slowK := []int{0, 2, 8}[next()%3]
	maxEvents := []int{8, 12, 96}[next()%3]

	got, want := newTraceWorld(), newTraceWorld()
	var recs [2]*Recorder
	var refs [2]*refRecorder
	flagged := refSampled{}
	for h := range recs {
		recs[h] = NewRecorder(got.e, uint64(h+1), p)
		recs[h].slowestK, recs[h].maxEvents = slowK, maxEvents
		refs[h] = newRefRecorder(want.e, uint64(h+1), recs[h], flagged)
		got.rs[h], want.rs[h] = recs[h], refs[h]
	}
	got.move = func(c *function.Call, from, to int) {
		recs[from].Extract(c)
		recs[to].Adopt(c)
	}
	want.move = func(c *function.Call, from, to int) {
		if !flagged[c] {
			return
		}
		if ct := refs[from].Extract(c.ID); ct != nil {
			refs[to].Adopt(ct)
		} else {
			flagged[c] = false
		}
	}
	worlds := [...]*traceWorld{got, want}

	var (
		nextID uint64
		home   [tracePool]int
		step   string
	)
	submit := func(i int) {
		for _, w := range worlds {
			c := w.calls[i]
			if c.ID == 0 {
				c.ID = nextID + 1
			}
			c.SubmitTime, c.StartAfter, c.Deadline = w.e.Now(), w.e.Now()+sim.Time(i)*sim.Time(time.Second), w.e.Now()+sim.Time(time.Hour)
			w.clones[i] = nil
			w.rs[home[i]].OnSubmit(c)
		}
		nextID = max(nextID, want.calls[i].ID)
		step += fmt.Sprintf(" submit(call %d, recorder %d)", want.calls[i].ID, home[i])
	}
	record := func(h, i int, viaClone bool, k Kind, arg int64) {
		for _, w := range worlds {
			c := w.calls[i]
			if viaClone && w.clones[i] != nil {
				c = w.clones[i]
			}
			w.rs[h].Record(c, k, arg)
		}
		step += fmt.Sprintf(" %s(call %d, recorder %d, arg %d)", k, want.calls[i].ID, h, arg)
	}
	tick := func(n int) {
		for _, w := range worlds {
			w.e.RunFor(time.Duration(n) * 10 * time.Millisecond)
		}
	}

	steps := 0
	for pos < len(prog) {
		op, i, n := next()%16, next()%tracePool, next()
		step = fmt.Sprintf("op %d:", op)
		switch {
		case op < 2:
			submit(i)
		case op < 9:
			record(home[i], i, n&128 != 0, traceKinds[n%len(traceKinds)], int64(next()%5))
		case op == 9: // a stray reaching the recorder the call is not in
			record(1-home[i], i, n&128 != 0, traceKinds[n%len(traceKinds)], int64(next()%5))
		case op == 10: // hedge: the clone is a value copy made now
			for _, w := range worlds {
				cl := *w.calls[i]
				w.clones[i] = &cl
				if w == want {
					flagged[&cl] = flagged[w.calls[i]]
				}
			}
			step += fmt.Sprintf(" clone(call %d)", want.calls[i].ID)
		case op == 11: // fabric migration to the other recorder
			record(home[i], i, false, KindMigrated, int64(1-home[i]))
			for _, w := range worlds {
				w.move(w.calls[i], home[i], 1-home[i])
			}
			home[i] = 1 - home[i]
			step += " move"
		case op == 12: // the nine stored events of a first-time success
			submit(i)
			for _, k := range [...]Kind{KindRoute, KindEnqueue, KindLease, KindScheduled, KindDispatch, KindExecStart, KindExecEnd, KindComplete, KindAck} {
				tick(n % 7)
				record(home[i], i, false, k, 1)
			}
		default:
			tick(n)
			step += " clock"
		}
		steps++
		for h := range got.rs {
			if g, w := got.snapshot(h, nextID), want.snapshot(h, nextID); g != w {
				t.Fatalf("step %d (%s): recorder %d reports\n%s\nreference\n%s", steps, step, h, g, w)
			}
		}
	}
	return steps
}

func TestRecorderMatchesReference(t *testing.T) {
	steps := 0
	for seed := int64(1); seed <= 32; seed++ {
		prog := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(prog)
		steps += runRecordersAgainstReference(t, prog)
	}
	if steps < 15_000 {
		t.Fatalf("only %d random steps compared, want at least 15000", steps)
	}
}

// FuzzRecorderMatchesReference explores tracing programs beyond the
// seeded ones; testdata/fuzz holds the checked-in corpus.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runRecordersAgainstReference(t, prog) })
}
