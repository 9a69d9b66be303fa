// Package trace is the platform's deterministic per-call tracing layer
// and control-plane event log. A Recorder threaded through core.Platform
// collects spans on the simulated clock for a seeded sample of calls —
// submit, route, DurableQ enqueue→lease, scheduler admission decisions
// (quota, congestion, isolation), dispatch, execution, retries,
// back-pressure and evacuations — into bounded buffers, alongside a
// separate ring of control-plane events (chaos injections, breaker and
// health-state transitions, AIMD backoffs, shed-level changes).
//
// Two properties are contractual:
//
//   - Determinism: sampling is a pure function of (seed, call ID), the
//     recorder schedules nothing on the engine and feeds nothing back
//     into any decision, so a traced run is byte-identical to the same
//     seed untraced, and two traced runs are byte-identical to each
//     other. Retention (recent ring, slowest-K heap) uses only virtual
//     time and call IDs as tie-breaks.
//
//   - Zero-alloc when disabled: every per-call hook starts with a nil
//     check on the recorder and on the call's observer record and returns
//     before touching any state, so instrumented hot paths cost nothing
//     when tracing is off. Control-plane events are always recorded; they
//     fire only on rare state transitions.
//
// Per-call state lives in one Record that rides on the call
// (function.Call.Obs): the trace header, its first events inline, the
// invariant ledger's entry, and the links of the recorder's in-flight
// list. An event costs a pointer load and an array store; nothing is
// looked up by call ID. The simulation itself is single-threaded per
// partition; Recorder's comment says what its mutex covers.
package trace

import (
	"sort"
	"sync"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// Kind labels one span event in a call's lifecycle.
type Kind uint8

const (
	// KindSubmit: accepted by a submitter (ID assigned, batch-buffered).
	KindSubmit Kind = iota
	// KindRoute: QueueLB chose a destination region (arg: region).
	KindRoute
	// KindEnqueue: persisted into a DurableQ shard (arg: shard ref).
	KindEnqueue
	// KindLease: offered to a scheduler (arg: attempt number).
	KindLease
	// KindLeaseExpired: lease timed out without ACK/NACK.
	KindLeaseExpired
	// KindScheduled: moved FuncBuffer → RunQ past all admission gates.
	KindScheduled
	// KindQuotaDenied: blocked by the central rate limiter this tick.
	KindQuotaDenied
	// KindCongestionDenied: blocked by AIMD/slow-start/concurrency.
	KindCongestionDenied
	// KindIsolationDenied: argument-flow check rejected the call.
	KindIsolationDenied
	// KindDispatch: sent to a worker (arg: worker ref).
	KindDispatch
	// KindExecStart: execution began on a worker.
	KindExecStart
	// KindExecEnd: execution finished (arg: 0 ok, 1 error).
	KindExecEnd
	// KindDownstreamRetry: downstream sub-call needed retries
	// (arg: extra attempts used).
	KindDownstreamRetry
	// KindBackpressure: completion carried a back-pressure exception.
	KindBackpressure
	// KindSLOMiss: completed after its deadline.
	KindSLOMiss
	// KindEvacuated: scheduler handed the call back (breaker open,
	// detected outage, or detected worker death).
	KindEvacuated
	// KindNack: failed execution reported to the DurableQ.
	KindNack
	// KindRetry: requeued for redelivery (arg: backoff nanoseconds).
	KindRetry
	// KindAck: terminal success — removed from the DurableQ.
	KindAck
	// KindDeadLetter: terminal failure — retries exhausted
	// (arg: attempts).
	KindDeadLetter
	// KindDropped: terminal — never persisted anywhere (total DurableQ
	// outage at submission).
	KindDropped
	// KindLost: terminal — destroyed by a component crash before
	// settling (a journal's torn tail, a submitter's unflushed batch).
	KindLost
	// KindRecovered: requeued by journal replay after a shard crash
	// (arg: the journal op the call was recovered from).
	KindRecovered
	// KindExpired: terminal — swept to dead-letter past its deadline
	// (arg: attempts).
	KindExpired
	// KindShed: terminal — dead-lettered by queue-delay shedding
	// (arg: queue delay in nanoseconds).
	KindShed
	// KindBudgetExhausted: terminal — the function's retry budget was
	// empty at redelivery time (arg: attempts).
	KindBudgetExhausted
	// KindMigrated: the call was handed to another partition over the
	// parallel-simulation fabric (arg: destination partition). Not
	// terminal: the trace is Extracted from the source recorder and
	// Adopted by the destination's, so a migrated call keeps one span
	// tree and the breakdown identity closes across partitions.
	KindMigrated
	// KindHedgeDispatch: a speculative copy was dispatched to a second
	// worker because the primary execution outran the function's hedge
	// delay (arg: hedge worker ref).
	KindHedgeDispatch
	// KindHedgeWin: the speculative copy finished first; the primary
	// execution was cancelled (arg: winning worker ref).
	KindHedgeWin
	// KindHedgeCancel: the primary finished first; the speculative copy
	// was cancelled (arg: cancelled worker ref).
	KindHedgeCancel

	// The kinds below exist for the invariant ledger (invariant.Checker.On)
	// and never appear in a trace: a transition that shares its span with
	// an earlier kind is stored as that kind, and one with no span of its
	// own is skipped (see Kind.span).

	// KindRelease: a regional drain dissolved a held lease back into plain
	// queued work. Stored as KindRetry with zero backoff.
	KindRelease
	// KindDrainMigrated: a drain moved a queued call's durable home to a
	// peer region's shard (arg: adopting shard ref). Stored as
	// KindMigrated.
	KindDrainMigrated
	// KindComplete: a worker finished the call, success or failure
	// (arg: worker ref). Not stored: KindExecEnd already marks the instant.
	KindComplete
	// KindMigrateIn: the call arrived from another partition. Not stored:
	// the adopted trace carries the source's KindMigrated.
	KindMigrateIn

	// NumKinds bounds the Kind space.
	NumKinds
)

var kindNames = [NumKinds]string{
	"submit", "route", "enqueue", "lease", "lease-expired", "scheduled",
	"quota-denied", "congestion-denied", "isolation-denied", "dispatch",
	"exec-start", "exec-end", "downstream-retry", "backpressure",
	"slo-miss", "evacuated", "nack", "retry", "ack", "dead-letter",
	"dropped", "lost", "recovered", "expired", "shed", "budget-exhausted",
	"migrated", "hedge-dispatch", "hedge-win", "hedge-cancel",
	"release", "drain-migrated", "complete", "migrate-in",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends a call's trace.
func (k Kind) Terminal() bool {
	return k == KindAck || k == KindDropped || k == KindLost || k.DeadLetter()
}

// DeadLetter reports whether the kind is a dead-letter disposition.
func (k Kind) DeadLetter() bool {
	const set = 1<<KindDeadLetter | 1<<KindExpired | 1<<KindShed | 1<<KindBudgetExhausted
	return uint64(set)>>k&1 != 0
}

// span maps a lifecycle kind to the kind a Recorder stores for it; ok is
// false for the ledger-only kinds that have no span.
func (k Kind) span() (stored Kind, ok bool) {
	switch k {
	case KindRelease:
		return KindRetry, true
	case KindDrainMigrated:
		return KindMigrated, true
	}
	return k, k < KindRelease
}

// Ref packs a (region, index) component identity into an event arg.
func Ref(region cluster.RegionID, index int) int64 {
	return int64(region)<<32 | int64(uint32(index))
}

// SplitRef unpacks a Ref arg.
func SplitRef(arg int64) (region cluster.RegionID, index int) {
	return cluster.RegionID(arg >> 32), int(uint32(arg))
}

// Event is one timestamped step in a call's lifecycle. Arg's meaning is
// per-Kind (see the Kind constants).
type Event struct {
	At   sim.Time
	Kind Kind
	Arg  int64
}

// CallTrace is the recorded lifecycle of one sampled call.
type CallTrace struct {
	ID         uint64
	Func       string
	Crit       function.Criticality
	Quota      function.QuotaType
	Region     cluster.RegionID // submission region
	SubmitAt   sim.Time
	StartAfter sim.Time

	// EndAt/Outcome/Done are set when a terminal event arrives.
	EndAt   sim.Time
	Outcome Kind
	Done    bool
	// Attempts is the highest delivery attempt observed.
	Attempts int
	// Truncated counts events dropped past maxEventsPerCall.
	Truncated int
	Events    []Event
}

// inlineEvents is how many events a Record holds in its own allocation:
// the nine a call that succeeds first time stores (submit, route, enqueue,
// lease, scheduled, dispatch, exec-start, exec-end, ack). Longer traces
// spill to the heap through append.
const inlineEvents = 9

// Record is the observer state of one call. It is allocated once, by
// whichever consumer meets the bare call first, and travels with the call
// from then on: hedge clones are value copies of the Call and share it, a
// fabric migration carries it to the destination partition.
type Record struct {
	// CallTrace is the sampled call's trace; Events is nil while no
	// recorder has opened one.
	CallTrace
	// owner is the recorder whose in-flight list holds the record through
	// next/prev: nil for an untraced call, a finalized trace, and a trace in
	// transit between partitions.
	owner *Recorder
	// Ledger is invariant.Checker's entry for the call.
	Ledger     Ledger
	next, prev *Record
	// inline comes last, and the fields are in this order, so that what
	// every transition reads — the Events header that ends CallTrace,
	// owner, the ledger's state and tally — is some seventy contiguous
	// bytes of a record that is usually cold.
	inline [inlineEvents]Event
}

// Ledger is the invariant ledger's per-call entry. It lives here because
// the record type must be visible to both consumers and invariant imports
// trace; only invariant.Checker reads or writes it.
type Ledger struct {
	State uint8
	// Live is false before the entry opens and after a terminal; Orphaned
	// outlives the terminal.
	Live, Orphaned bool
	Region         int32
	Attempt        int32
	// Counts is the owning checker's tallies of the call's function,
	// resolved once when the entry opens. It also says whose entry this is.
	Counts        any
	Worker, Hedge int64
}

// RecordOf returns c's observer record, nil for a call no consumer has
// observed.
func RecordOf(c *function.Call) *Record {
	rec, _ := c.Obs.(*Record)
	return rec
}

// Attach returns c's observer record, allocating it on first use.
func Attach(c *function.Call) *Record {
	rec := RecordOf(c)
	if rec == nil {
		rec = &Record{}
		c.Obs = rec
	}
	return rec
}

// Latency is submit→terminal; zero until Done.
func (t *CallTrace) Latency() sim.Time {
	if !t.Done {
		return 0
	}
	return t.EndAt - t.SubmitAt
}

// ControlEvent is one control-plane state transition: a chaos injection,
// a breaker or health-state flip, an AIMD backoff, a shed change.
type ControlEvent struct {
	Seq    uint64
	At     sim.Time
	Kind   string
	Detail string
}

// Params configure a Recorder. The zero value records control-plane
// events only (per-call tracing disabled).
type Params struct {
	// Enabled turns per-call span tracing on.
	Enabled bool
	// SampleEvery is the head-sampling rate: a seeded hash of the call ID
	// selects ~1/SampleEvery of calls. Values <= 1 trace every call.
	SampleEvery uint64
	// RingSize bounds the ring of most recently completed traces.
	RingSize int
}

const (
	// slowestK is how many of the slowest completed traces are retained
	// besides the recency ring (tail sampling: the calls a latency
	// investigation wants are exactly the ones a recency ring evicts
	// first).
	slowestK int = 32
	// maxEventsPerCall bounds one trace's event list so a retry loop
	// cannot grow a trace without bound; terminal events always record.
	maxEventsPerCall int = 96
	// controlLog bounds the control-plane event ring.
	controlLog int = 512
)

// DefaultParams returns the default sizes with tracing disabled.
func DefaultParams() Params {
	return Params{
		Enabled:     false,
		SampleEvery: 1,
		RingSize:    4096,
	}
}

// Recorder collects call traces and control-plane events. All methods
// are safe on a nil receiver (no-ops), so components hold a plain field
// and never branch on configuration. mu guards the in-flight list, the
// retention buffers, the counters and the control log; an in-flight
// trace's events are appended without it, and a reader that renders them
// while the engine runs must be ordered against the engine by the caller
// (httpapi's server mutex brackets Engine.RunFor and every handler).
type Recorder struct {
	engine *sim.Engine
	params Params
	seed   uint64
	// slowestK and maxEvents are slowestK and maxEventsPerCall; tests
	// vary them.
	slowestK, maxEvents int

	mu      sync.Mutex
	active  *Record // head of the in-flight list
	nActive int
	recent  []*CallTrace // ring; next is the write position
	next    int
	filled  bool
	slow    slowHeap // min-heap over latency, size <= slowestK

	sampled   uint64
	completed uint64
	dropped   uint64

	ctrl     []ControlEvent // ring
	ctrlNext int
	ctrlFull bool
	ctrlSeq  uint64
}

// NewRecorder returns a recorder on the engine's clock. Sampling
// decisions derive from seed only, never from runtime state.
func NewRecorder(engine *sim.Engine, seed uint64, p Params) *Recorder {
	p.SampleEvery = max(p.SampleEvery, 1)
	p.RingSize = max(p.RingSize, 1)
	return &Recorder{
		engine:    engine,
		params:    p,
		seed:      seed,
		slowestK:  slowestK,
		maxEvents: maxEventsPerCall,
		recent:    make([]*CallTrace, p.RingSize),
		ctrl:      make([]ControlEvent, controlLog),
	}
}

// Enabled reports whether per-call tracing is on.
func (r *Recorder) Enabled() bool { return r != nil && r.params.Enabled }

// Params returns the recorder's configuration (zero value when nil).
func (r *Recorder) Params() Params {
	if r == nil {
		return Params{}
	}
	return r.params
}

// splitmix64 finalizer: a well-mixed pure hash of the call ID and seed.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ShouldSample reports the head-sampling decision for a call ID — a pure
// function of (seed, id), so every replica of a seeded run samples the
// same calls.
func (r *Recorder) ShouldSample(id uint64) bool {
	if r.params.SampleEvery <= 1 {
		return true
	}
	return mix(r.seed^id*0x9E3779B97F4A7C15)%r.params.SampleEvery == 0
}

// OnSubmit makes the sampling decision for a newly admitted call and, if
// selected, opens its trace with a submit event. Call after the ID and
// submit time are stamped.
func (r *Recorder) OnSubmit(c *function.Call) {
	if r == nil || !r.params.Enabled || !r.ShouldSample(c.ID) {
		return
	}
	rec := RecordOf(c)
	var stale *Record
	if rec == nil || rec.Events != nil {
		// A call object submitted again gets a fresh record: a retention
		// buffer may still hold its old trace.
		stale, rec = rec, &Record{}
		if stale != nil {
			rec.Ledger = stale.Ledger
		}
		c.Obs = rec
	}
	rec.CallTrace = CallTrace{
		ID:         c.ID,
		Func:       c.Spec.Name,
		Crit:       c.Spec.Criticality,
		Quota:      c.Spec.Quota,
		Region:     c.SourceRegion,
		SubmitAt:   c.SubmitTime,
		StartAfter: c.StartAfter,
	}
	rec.Events = append(rec.inline[:0], Event{At: c.SubmitTime, Kind: KindSubmit})
	r.mu.Lock()
	if stale != nil && stale.owner == r {
		r.unlink(stale)
	}
	r.link(rec)
	r.sampled++
	r.mu.Unlock()
}

// Record appends one lifecycle event to the call's trace if this recorder
// holds it open; any other call returns after two loads, without locking
// or allocating. Terminal kinds finalize the trace; ledger-only kinds are
// stored as their span's kind or skipped.
func (r *Recorder) Record(c *function.Call, k Kind, arg int64) {
	if r == nil {
		return
	}
	rec := RecordOf(c)
	if rec == nil || rec.owner != r {
		return
	}
	k, ok := k.span()
	if !ok {
		return
	}
	if len(rec.Events) >= r.maxEvents && !k.Terminal() {
		rec.Truncated++
		r.mu.Lock()
		r.dropped++
		r.mu.Unlock()
		return
	}
	rec.Events = append(rec.Events, Event{At: r.engine.Now(), Kind: k, Arg: arg})
	if k == KindLease && int(arg) > rec.Attempts {
		rec.Attempts = int(arg)
	}
	if k.Terminal() {
		r.mu.Lock()
		r.finalize(rec, k)
		r.mu.Unlock()
	}
}

// link and unlink move a record onto and off the in-flight list. Caller
// holds r.mu.
func (r *Recorder) link(rec *Record) {
	rec.owner, rec.prev, rec.next = r, nil, r.active
	if r.active != nil {
		r.active.prev = rec
	}
	r.active = rec
	r.nActive++
}

func (r *Recorder) unlink(rec *Record) {
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		r.active = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	}
	rec.owner, rec.prev, rec.next = nil, nil, nil
	r.nActive--
}

// finalize moves a trace from the in-flight list to the retention
// buffers. Caller holds r.mu.
func (r *Recorder) finalize(rec *Record, outcome Kind) {
	r.unlink(rec)
	t := &rec.CallTrace
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

// Extract takes c's in-flight trace off this recorder — the migration
// path: the source partition's recorder lets go of the trace on its own
// goroutine before the call crosses the fabric, the record travels with
// the call, and the destination Adopts it at delivery time. A call this
// recorder holds no open trace of is left alone.
func (r *Recorder) Extract(c *function.Call) {
	rec := RecordOf(c)
	if r == nil || rec == nil || rec.owner != r {
		return
	}
	r.mu.Lock()
	r.unlink(rec)
	r.sampled--
	r.mu.Unlock()
}

// Adopt continues a trace Extracted from another recorder as if it had
// been opened here. A call with no trace in transit is left alone.
func (r *Recorder) Adopt(c *function.Call) {
	rec := RecordOf(c)
	if r == nil || rec == nil || rec.owner != nil || rec.Events == nil || rec.Done {
		return
	}
	r.mu.Lock()
	r.link(rec)
	r.sampled++
	r.mu.Unlock()
}

// Control appends one control-plane event at the current virtual time.
// Always on (independent of Enabled); safe on nil.
func (r *Recorder) Control(kind, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ctrlSeq++
	r.ctrl[r.ctrlNext] = ControlEvent{
		Seq:    r.ctrlSeq,
		At:     r.engine.Now(),
		Kind:   kind,
		Detail: detail,
	}
	r.ctrlNext++
	if r.ctrlNext == len(r.ctrl) {
		r.ctrlNext = 0
		r.ctrlFull = true
	}
	r.mu.Unlock()
}

// Controls returns the retained control-plane events in sequence order.
func (r *Recorder) Controls() []ControlEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return unroll(r.ctrl, r.ctrlNext, r.ctrlFull)
}

// unroll copies out a ring's contents oldest first; next is its write
// position and full whether it has wrapped.
func unroll[T any](ring []T, next int, full bool) []T {
	if !full {
		return append([]T(nil), ring[:next]...)
	}
	return append(append(make([]T, 0, len(ring)), ring[next:]...), ring[:next]...)
}

// ControlCount returns the total number of control events ever recorded.
func (r *Recorder) ControlCount() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctrlSeq
}

// Recent returns the completed-trace ring, oldest first.
func (r *Recorder) Recent() []*CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return unroll(r.recent, r.next, r.filled)
}

// Slowest returns up to slowestK completed traces, slowest first; ties
// break on ascending call ID.
func (r *Recorder) Slowest() []*CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*CallTrace, len(r.slow))
	copy(out, r.slow)
	r.mu.Unlock()
	// Descending by latency, ascending ID on ties.
	sort.SliceStable(out, func(i, j int) bool { return slowLess(out[j], out[i]) })
	return out
}

// Find returns the trace for a call ID: in-flight, recent, or retained
// slowest. Nil when the call was not sampled or has been evicted. It is a
// diagnostic: the in-flight search walks the list.
func (r *Recorder) Find(id uint64) *CallTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for rec := r.active; rec != nil; rec = rec.next {
		if rec.ID == id {
			return &rec.CallTrace
		}
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
func (r *Recorder) Active() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nActive
}

// Stats returns lifetime counters: traces opened, traces completed, and
// events dropped by the per-call cap.
func (r *Recorder) Stats() (sampled, completed, dropped uint64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampled, r.completed, r.dropped
}

// slowLess orders a strictly below b for the slowest-K min-heap: smaller
// latency first, larger ID first on ties (so the keeper among equals is
// the earliest call — a deterministic rule, not a meaningful one).
func slowLess(a, b *CallTrace) bool {
	la, lb := a.Latency(), b.Latency()
	if la != lb {
		return la < lb
	}
	return a.ID > b.ID
}

// slowHeap is a binary min-heap under slowLess; the root is the
// least-slow retained trace, evicted first.
type slowHeap []*CallTrace

func (h *slowHeap) push(t *CallTrace) {
	*h = append(*h, t)
	j := len(*h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !slowLess((*h)[j], (*h)[i]) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func (h slowHeap) down(i int) {
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && slowLess(h[j2], h[j1]) {
			j = j2
		}
		if !slowLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
