package scheduler

import (
	"sort"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/gtc"
	"xfaas/internal/isolation"
	"xfaas/internal/lifecycle"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// rig is a one-region test platform slice: one shard, a small worker
// pool, a scheduler and its control dependencies.
type rig struct {
	engine *sim.Engine
	store  *config.Store
	shard  *durableq.Shard
	shards [][]*durableq.Shard
	pool   []*worker.Worker
	lb     *workerlb.LB
	cen    *ratelimit.Central
	cong   *congestion.Manager
	sched  *Scheduler
	idSeq  uint64
}

func newRig(workers int, workerMIPS float64) *rig {
	r := &rig{engine: sim.NewEngine()}
	r.store = config.NewStore(r.engine)
	r.shard = durableq.NewShard(durableq.ShardID{}, r.engine, nil)
	r.shards = [][]*durableq.Shard{{r.shard}}
	src := rng.New(7)
	wp := worker.DefaultParams()
	wp.CPUMIPS = workerMIPS
	for i := 0; i < workers; i++ {
		r.pool = append(r.pool, worker.New(worker.ID{Index: i}, r.engine, wp, src.Split(), nil))
	}
	r.lb = workerlb.New(src.Split(), r.pool)
	r.cen = ratelimit.NewCentral(r.engine)
	r.cong = congestion.NewManager(r.engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	r.sched = New(r.engine, src.Split(), 0, DefaultParams(), r.shards, r.lb, r.cen, r.cong, r.store)
	return r
}

func rigSpec(name string, crit function.Criticality) *function.Spec {
	return &function.Spec{
		Name:        name,
		Namespace:   "ns",
		Deadline:    time.Hour,
		Criticality: crit,
		Retry:       function.DefaultRetry,
	}
}

func (r *rig) enqueue(s *function.Spec, n int) []*function.Call {
	var out []*function.Call
	now := r.engine.Now()
	for i := 0; i < n; i++ {
		r.idSeq++
		c := &function.Call{
			ID:         r.idSeq,
			Spec:       s,
			SubmitTime: now,
			StartAfter: now,
			Deadline:   now + s.Deadline,
			CPUWorkM:   10,
			MemMB:      10,
			ExecSecs:   0.1,
		}
		r.shard.Enqueue(c)
		out = append(out, c)
	}
	return out
}

func TestEndToEndExecutionAndAck(t *testing.T) {
	r := newRig(4, 100000)
	calls := r.enqueue(rigSpec("f", function.CritNormal), 100)
	r.engine.RunFor(5 * time.Minute)
	for _, c := range calls {
		if c.State != function.StateSucceeded {
			t.Fatalf("call %d state = %v", c.ID, c.State)
		}
	}
	if r.shard.Pending() != 0 || r.shard.Leased() != 0 {
		t.Fatalf("shard not drained: pending=%d leased=%d", r.shard.Pending(), r.shard.Leased())
	}
	if r.sched.Acked.Value() != 100 {
		t.Fatalf("acked = %v", r.sched.Acked.Value())
	}
}

func TestCriticalityPriorityUnderScarcity(t *testing.T) {
	// One worker with one thread: strict serialization exposes order.
	r := newRig(1, 100000)
	p := worker.DefaultParams()
	p.MaxConcurrency = 1
	p.CPUMIPS = 100000
	r.pool[0] = worker.New(worker.ID{}, r.engine, p, rng.New(1), nil)
	r.lb = workerlb.New(rng.New(2), r.pool)
	r.sched.Crash()
	r.sched = New(r.engine, rng.New(3), 0, DefaultParams(), r.shards, r.lb, r.cen, r.cong, r.store)

	low := r.enqueue(rigSpec("low", function.CritLow), 50)
	high := r.enqueue(rigSpec("high", function.CritHigh), 50)
	r.engine.RunFor(time.Hour)
	var lowStart, highStart sim.Time
	for _, c := range low {
		lowStart += c.ExecStartAt
	}
	for _, c := range high {
		highStart += c.ExecStartAt
	}
	if highStart/50 >= lowStart/50 {
		t.Fatalf("high-criticality mean start %v not before low %v", highStart/50, lowStart/50)
	}
}

func mkCall(id uint64, spec *function.Spec, deadline time.Duration) *function.Call {
	return &function.Call{ID: id, Spec: spec, Deadline: sim.Time(deadline)}
}

// TestFuncBufferPopOrderTable pins the (criticality desc, deadline asc,
// ID asc) pop order on hand-picked shapes.
func TestFuncBufferPopOrderTable(t *testing.T) {
	lo, hi := rigSpec("f", function.CritLow), rigSpec("f", function.CritHigh)
	cases := []struct {
		label string
		in    []*function.Call
		want  []uint64
	}{
		{"deadline ascending", []*function.Call{
			mkCall(1, lo, 3*time.Hour), mkCall(2, lo, time.Hour), mkCall(3, lo, 2*time.Hour),
		}, []uint64{2, 3, 1}},
		{"criticality dominates deadline", []*function.Call{
			mkCall(1, lo, time.Minute), mkCall(2, hi, 10*time.Hour),
		}, []uint64{2, 1}},
		{"equal deadlines break by ID", []*function.Call{
			mkCall(9, lo, time.Hour), mkCall(3, lo, time.Hour), mkCall(7, lo, time.Hour),
		}, []uint64{3, 7, 9}},
		{"mixed", []*function.Call{
			mkCall(1, lo, time.Hour), mkCall(2, hi, 2*time.Hour),
			mkCall(3, hi, time.Hour), mkCall(4, lo, 30*time.Minute),
		}, []uint64{3, 2, 4, 1}},
	}
	for _, tc := range cases {
		b := NewFuncBuffer(tc.in[0].Spec)
		for _, c := range tc.in {
			b.Push(c)
		}
		for i, want := range tc.want {
			got := b.Pop()
			if got == nil || got.ID != want {
				t.Fatalf("%s: pop %d = %v, want ID %d", tc.label, i, got, want)
			}
		}
	}
}

// TestFuncBufferPopOrderGenerated drives random push/pop interleavings
// from a seeded generator, each call with its own criticality: every pop
// must be minimal (per Less) among the calls currently buffered — the
// heap property stated as an oracle, independent of the heap
// implementation — and a drained buffer pops nil.
func TestFuncBufferPopOrderGenerated(t *testing.T) {
	specs := []*function.Spec{
		rigSpec("g", function.CritLow), rigSpec("g", function.CritNormal), rigSpec("g", function.CritHigh),
	}
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		b := NewFuncBuffer(specs[0])
		live := map[uint64]*function.Call{}
		pop := func() {
			got := b.Pop()
			if got == nil {
				t.Fatalf("seed %d: pop returned nil with %d live", seed, len(live))
			}
			if _, ok := live[got.ID]; !ok {
				t.Fatalf("seed %d: popped unknown call %d", seed, got.ID)
			}
			for _, other := range live {
				if other.ID != got.ID && Less(other, got) {
					t.Fatalf("seed %d: popped %d (criticality %v, deadline %v) while %d (criticality %v, deadline %v) was buffered and ordered earlier",
						seed, got.ID, got.Criticality(), got.Deadline, other.ID, other.Criticality(), other.Deadline)
				}
			}
			delete(live, got.ID)
		}
		id := uint64(0)
		for op := 0; op < 400; op++ {
			if b.Len() == 0 || src.Float64() < 0.6 {
				id++
				// Coarse deadline buckets force ID tiebreaks too.
				c := mkCall(id, specs[src.Intn(len(specs))], time.Duration(1+src.Intn(8))*time.Hour)
				b.Push(c)
				live[c.ID] = c
				continue
			}
			pop()
		}
		for len(live) > 0 {
			pop()
		}
		if got := b.Pop(); got != nil || b.Len() != 0 {
			t.Fatalf("seed %d: drained buffer popped %v (len %d)", seed, got, b.Len())
		}
	}
}

// TestScheduleOrdersBuffersByHeadCall: schedule() takes the backlogged
// functions in Less order of their heads, so of two heads with one
// criticality and deadline the lower ID goes first, whatever the names.
func TestScheduleOrdersBuffersByHeadCall(t *testing.T) {
	r := newRig(1, 100000)
	a, b := rigSpec("a", function.CritNormal), rigSpec("b", function.CritNormal)
	r.sched.admit(mkCall(2, a, time.Hour))
	r.sched.admit(mkCall(1, b, time.Hour))
	r.sched.schedule()
	var ids []uint64
	for _, c := range r.sched.runQ {
		ids = append(ids, c.ID)
	}
	if len(ids) != 2 || ids[0] != 1 {
		t.Fatalf("RunQ = %v, want call 1 (function b) first", ids)
	}
}

func TestQuotaThrottling(t *testing.T) {
	r := newRig(4, 100000)
	s := rigSpec("limited", function.CritNormal)
	s.QuotaMIPS = 100                                                      // at 10 M instr/call ≈ 10 RPS
	s.Resources = function.ResourceModel{CPUMu: 2.302585, CPUSigma: 0.001} // mean ≈ 10
	r.enqueue(s, 3000)
	r.engine.RunFor(60 * time.Second)
	executed := r.sched.Acked.Value()
	rate := executed / 60
	if rate > 20 {
		t.Fatalf("executed rate = %v RPS, want quota-limited to ≈10", rate)
	}
	if r.sched.QuotaThrottled.Value() == 0 {
		t.Fatal("no quota throttling recorded")
	}
}

func TestOpportunisticDeferredWhenSZero(t *testing.T) {
	r := newRig(4, 100000)
	r.cen.SetScale(0)
	s := rigSpec("opp", function.CritNormal)
	s.Quota = function.QuotaOpportunistic
	s.QuotaMIPS = 1000
	r.enqueue(s, 100)
	r.engine.RunFor(10 * time.Minute)
	if r.sched.Acked.Value() != 0 {
		t.Fatalf("opportunistic calls ran with S=0: %v", r.sched.Acked.Value())
	}
	// Deferred calls wait durably, not in scheduler memory.
	if r.sched.Buffered() != 0 {
		t.Fatalf("deferred calls held in buffers: %d", r.sched.Buffered())
	}
	if r.shard.Pending() != 100 {
		t.Fatalf("pending = %d, want all 100 waiting", r.shard.Pending())
	}
	// Capacity frees up: S rises, work drains.
	r.cen.SetScale(1)
	r.engine.RunFor(10 * time.Minute)
	if r.sched.Acked.Value() != 100 {
		t.Fatalf("acked after S=1: %v", r.sched.Acked.Value())
	}
}

func TestFutureStartTimeHeld(t *testing.T) {
	r := newRig(2, 100000)
	s := rigSpec("later", function.CritNormal)
	now := r.engine.Now()
	r.idSeq++
	c := &function.Call{
		ID: r.idSeq, Spec: s, SubmitTime: now,
		StartAfter: now + 2*time.Hour, Deadline: now + 3*time.Hour,
		CPUWorkM: 1, MemMB: 1, ExecSecs: 0.01,
	}
	r.shard.Enqueue(c)
	r.engine.RunFor(time.Hour)
	if c.State != function.StateQueued {
		t.Fatalf("future call state = %v before start time", c.State)
	}
	r.engine.RunFor(90 * time.Minute)
	if c.State != function.StateSucceeded {
		t.Fatalf("future call state = %v after start time", c.State)
	}
}

func TestIsolationDeniedCallsFail(t *testing.T) {
	r := newRig(2, 100000)
	s := rigSpec("secret", function.CritNormal)
	s.Zone = isolation.NewZone(isolation.Public)
	now := r.engine.Now()
	r.idSeq++
	c := &function.Call{
		ID: r.idSeq, Spec: s, SubmitTime: now, StartAfter: now,
		Deadline: now + time.Hour,
		ArgZone:  isolation.NewZone(isolation.Restricted), // high → low: illegal
		CPUWorkM: 1, MemMB: 1, ExecSecs: 0.01,
	}
	r.shard.Enqueue(c)
	r.engine.RunFor(10 * time.Minute)
	if r.sched.IsolationDenied.Value() == 0 {
		t.Fatal("illegal flow not denied")
	}
	if c.State == function.StateSucceeded {
		t.Fatal("illegal flow executed")
	}
	if r.sched.check.Denied == 0 {
		t.Fatal("checker did not record denial")
	}
}

func TestSchedulerCrashRedelivery(t *testing.T) {
	r := newRig(2, 100000)
	r.shard.LeaseTimeout = time.Minute
	s := rigSpec("f", function.CritNormal)
	// Stop the scheduler right after it polls but before completion is
	// possible: use long-running calls.
	now := r.engine.Now()
	for i := 0; i < 10; i++ {
		r.idSeq++
		r.shard.Enqueue(&function.Call{
			ID: r.idSeq, Spec: s, SubmitTime: now, StartAfter: now,
			Deadline: now + 2*time.Hour, CPUWorkM: 10, MemMB: 1, ExecSecs: 3600,
		})
	}
	r.engine.RunFor(2 * time.Second) // scheduler polls and dispatches
	r.sched.Crash()                  // crash: in-flight work will never be acked by it
	// A replacement scheduler (stateless, same shards) takes over after
	// the leases expire.
	replacement := New(r.engine, rng.New(99), 0, DefaultParams(), r.shards, r.lb, r.cen, r.cong, r.store)
	// Make calls short so the replacement can finish them.
	r.engine.RunFor(3 * time.Minute)
	if replacement.Polled.Value() == 0 {
		t.Fatal("replacement scheduler got no redeliveries")
	}
}

func TestSLOMissTracked(t *testing.T) {
	r := newRig(1, 100) // tiny worker: massive backlog
	s := rigSpec("f", function.CritNormal)
	s.Deadline = time.Second
	r.enqueue(s, 500)
	r.engine.RunFor(time.Hour)
	if r.sched.SLOMisses.Value() == 0 {
		t.Fatal("no SLO misses under extreme undercapacity")
	}
}

func TestFlowControlBoundsRunQ(t *testing.T) {
	r := newRig(1, 50) // worker can barely run anything
	s := rigSpec("f", function.CritNormal)
	r.enqueue(s, 5000)
	r.engine.RunFor(5 * time.Minute)
	if got := r.sched.RunQLen(); got > runQLimit {
		t.Fatalf("RunQ = %d exceeds limit %d", got, runQLimit)
	}
	if r.sched.Buffered() > bufferCap*2 {
		t.Fatalf("buffers grew unboundedly: %d", r.sched.Buffered())
	}
}

func TestCrossRegionPullsViaMatrix(t *testing.T) {
	// Two regions: region 1 idle, region 0's queue loaded; matrix says
	// region 1 pulls half from region 0.
	engine := sim.NewEngine()
	store := config.NewStore(engine)
	shard0 := durableq.NewShard(durableq.ShardID{Region: 0}, engine, nil)
	shard1 := durableq.NewShard(durableq.ShardID{Region: 1}, engine, nil)
	shards := [][]*durableq.Shard{{shard0}, {shard1}}
	src := rng.New(5)
	wp := worker.DefaultParams()
	var pool []*worker.Worker
	for i := 0; i < 2; i++ {
		pool = append(pool, worker.New(worker.ID{Region: 1, Index: i}, engine, wp, src.Split(), nil))
	}
	lb := workerlb.New(src.Split(), pool)
	cen := ratelimit.NewCentral(engine)
	cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	sched := New(engine, src.Split(), 1, DefaultParams(), shards, lb, cen, cong, store)
	store.Set(gtc.MatrixKey, gtc.Matrix{{1, 0}, {0.5, 0.5}})
	engine.RunFor(time.Minute) // propagate matrix

	s := rigSpec("f", function.CritNormal)
	now := engine.Now()
	for i := 0; i < 200; i++ {
		shard0.Enqueue(&function.Call{
			ID: uint64(i + 1), Spec: s, SubmitTime: now, StartAfter: now,
			Deadline: now + time.Hour, CPUWorkM: 1, MemMB: 1, ExecSecs: 0.01,
		})
	}
	engine.RunFor(5 * time.Minute)
	if sched.CrossRegionPulls.Value() == 0 {
		t.Fatal("scheduler never pulled cross-region despite matrix")
	}
	if sched.Acked.Value() != 200 {
		t.Fatalf("acked = %v, want 200", sched.Acked.Value())
	}
	_ = cluster.RegionID(0)
}

func TestEvacuateOnTotalWorkerOutage(t *testing.T) {
	r := newRig(2, 100000)
	r.shard.LeaseTimeout = 30 * time.Minute
	s := rigSpec("f", function.CritNormal)
	calls := r.enqueue(s, 200)
	r.engine.RunFor(5 * time.Second) // scheduler polls and starts dispatching
	for _, w := range r.pool {
		w.Fail()
	}
	r.engine.RunFor(time.Minute)
	if r.sched.Buffered() != 0 || r.sched.RunQLen() != 0 {
		t.Fatalf("scheduler still holds work after outage: buf=%d runq=%d",
			r.sched.Buffered(), r.sched.RunQLen())
	}
	// Everything unfinished is back in the DurableQ (or dead-lettered
	// after exhausting attempts) — not lost in scheduler memory.
	if r.shard.Pending() == 0 {
		t.Fatal("no calls returned to the durable queue")
	}
	// Workers recover: the backlog drains.
	for _, w := range r.pool {
		w.Recover()
	}
	r.engine.RunFor(30 * time.Minute)
	var terminal int
	for _, c := range calls {
		if c.State == function.StateSucceeded || c.State == function.StateFailed {
			terminal++
		}
	}
	if terminal != 200 {
		t.Fatalf("terminal calls = %d of 200 after recovery", terminal)
	}
}

// longCall enqueues n calls that run for execSecs each, so they stay in
// flight long enough for a mid-execution fault to strand them.
func (r *rig) enqueueLong(s *function.Spec, n int, execSecs float64) []*function.Call {
	var out []*function.Call
	now := r.engine.Now()
	for i := 0; i < n; i++ {
		r.idSeq++
		c := &function.Call{
			ID:         r.idSeq,
			Spec:       s,
			SubmitTime: now,
			StartAfter: now,
			Deadline:   now + s.Deadline,
			CPUWorkM:   10,
			MemMB:      10,
			ExecSecs:   execSecs,
		}
		r.shard.Enqueue(c)
		out = append(out, c)
	}
	return out
}

func TestSilentDeathDetectedViaHeartbeatsEvacuatesLeases(t *testing.T) {
	r := newRig(1, 100000)
	// Lease timeout far beyond the test horizon: the ONLY way these calls
	// can be redelivered is the heartbeat → onWorkerDown → NACK path.
	r.shard.LeaseTimeout = 30 * time.Minute
	r.lb.StartHealthChecks(r.engine)
	const hb = workerlb.HeartbeatInterval
	s := rigSpec("f", function.CritNormal)
	calls := r.enqueueLong(s, 8, 60)
	r.engine.RunFor(3 * time.Second)
	if r.pool[0].Running() != 8 || r.shard.Leased() != 8 {
		t.Fatalf("setup: running=%d leased=%d, want 8/8",
			r.pool[0].Running(), r.shard.Leased())
	}

	// Silent death: no completion callbacks fire, so the scheduler's only
	// source of truth is the heartbeat prober.
	r.pool[0].FailSilent()
	r.engine.RunFor(2 * hb) // two probes miss — below threshold
	if got := r.sched.Evacuated.Value(); got != 0 {
		t.Fatalf("evacuated %v leases before detection threshold", got)
	}
	if r.shard.Leased() != 8 {
		t.Fatalf("leases released early: leased=%d", r.shard.Leased())
	}
	r.engine.RunFor(hb) // third miss: detected dead
	if got := r.sched.Evacuated.Value(); got != 8 {
		t.Fatalf("evacuated = %v after detection, want 8", got)
	}
	if r.shard.Leased() != 0 {
		t.Fatalf("leases not released on evacuation: leased=%d", r.shard.Leased())
	}

	// Repair: one good probe flips the detected state back and the
	// redelivered attempts drain.
	r.pool[0].Recover()
	r.engine.RunFor(5 * time.Minute)
	for _, c := range calls {
		if c.State != function.StateSucceeded {
			t.Fatalf("call %d state = %v after recovery", c.ID, c.State)
		}
		if c.Attempt < 2 {
			t.Fatalf("call %d attempt = %d, want redelivery (≥2)", c.ID, c.Attempt)
		}
	}
}

func TestAllowPullGateStopsPolling(t *testing.T) {
	r := newRig(2, 100000)
	allow := false
	r.sched.AllowPull = func() bool { return allow }
	s := rigSpec("f", function.CritNormal)
	r.enqueue(s, 50)
	r.engine.RunFor(time.Minute)
	if got := r.sched.Polled.Value(); got != 0 {
		t.Fatalf("scheduler polled %v calls with the breaker open", got)
	}
	if r.shard.Pending() != 50 {
		t.Fatalf("pending = %d, want all 50 still queued", r.shard.Pending())
	}
	// Breaker closes: pulling resumes and the backlog drains.
	allow = true
	r.engine.RunFor(5 * time.Minute)
	if got := r.sched.Acked.Value(); got != 50 {
		t.Fatalf("acked = %v after breaker closed, want 50", got)
	}
}

// TestEvacuateSweepsBuffersInSortedOrder pins the evacuation NACK order.
// Each NACK of a call with a positive retry backoff consumes exactly one
// draw from the owning shard's RNG, so with a known seed the i-th
// evacuated call must carry the i-th draw as its recorded retry backoff.
// evacuate() must therefore empty its FuncBuffers in sorted function-name
// order (each buffer in its deterministic heap order) — iterating the
// buffer map directly would permute the draw assignment per run and leak
// Go map order into an otherwise seed-determined simulation (caught
// originally as run-to-run diffs in the partitioned-platform chaos gate).
func TestEvacuateSweepsBuffersInSortedOrder(t *testing.T) {
	engine := sim.NewEngine()
	store := config.NewStore(engine)
	shard := durableq.NewShard(durableq.ShardID{}, engine, rng.New(99))
	rec := trace.NewRecorder(engine, 1, trace.Params{
		Enabled: true, SampleEvery: 1, RingSize: 256,
	})
	shard.Obs = lifecycle.New(engine, rec, nil, nil)
	src := rng.New(7)
	wp := worker.DefaultParams()
	pool := []*worker.Worker{worker.New(worker.ID{Index: 0}, engine, wp, src.Split(), nil)}
	lb := workerlb.New(src.Split(), pool)
	cen := ratelimit.NewCentral(engine)
	cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	sched := New(engine, src.Split(), 0, DefaultParams(), [][]*durableq.Shard{{shard}}, lb, cen, cong, store)

	// Unsorted creation order, so sorted output can't happen by accident.
	names := []string{"zeta", "alpha", "mid", "beta", "omega", "gamma"}
	backoff := 10 * time.Second
	var calls []*function.Call
	id := uint64(0)
	for _, name := range names {
		spec := rigSpec(name, function.CritNormal)
		spec.Retry = function.RetryPolicy{MaxAttempts: 10, Backoff: backoff}
		for j := 0; j < 3; j++ {
			id++
			c := &function.Call{
				ID: id, Spec: spec,
				// Distinct deadlines fix each buffer's internal pop order.
				Deadline: sim.Time(time.Hour) + sim.Time(id)*sim.Time(time.Minute),
				CPUWorkM: 1, MemMB: 1, ExecSecs: 0.1,
			}
			shard.Enqueue(c)
			rec.OnSubmit(c)
			calls = append(calls, c)
		}
	}
	// Lease everything into the scheduler's FuncBuffers (the engine never
	// runs, so no tick interferes), then evacuate directly.
	for _, c := range shard.Poll(len(calls), nil) {
		sched.admit(c)
	}
	if got := sched.Buffered(); got != len(calls) {
		t.Fatalf("buffered = %d, want %d", got, len(calls))
	}
	sched.evacuate()
	if got := int(sched.Evacuated.Value()); got != len(calls) {
		t.Fatalf("evacuated = %d, want %d", got, len(calls))
	}

	// Expected order: buffers in sorted name order, each drained in its
	// (criticality, deadline, ID) heap order — here ascending ID.
	expected := append([]*function.Call(nil), calls...)
	sort.Slice(expected, func(i, j int) bool {
		if expected[i].Spec.Name != expected[j].Spec.Name {
			return expected[i].Spec.Name < expected[j].Spec.Name
		}
		return expected[i].ID < expected[j].ID
	})
	draws := rng.New(99) // replica of the shard's backoff source
	for i, c := range expected {
		want := time.Duration(draws.Float64() * float64(backoff))
		tr := rec.Find(c.ID)
		if tr == nil {
			t.Fatalf("no trace for call %d", c.ID)
		}
		got := time.Duration(-1)
		for _, ev := range tr.Events {
			if ev.Kind == trace.KindRetry {
				got = time.Duration(ev.Arg)
			}
		}
		if got != want {
			t.Fatalf("call %d (func %s, evacuation position %d): retry backoff %v, want draw %v — evacuation is not in sorted buffer order",
				c.ID, c.Spec.Name, i, got, want)
		}
	}
}

// TestRunQStaysDenseBehindPinnedHead: one call no worker can take sits at
// the head of the RunQ while every later call dispatches. The queue must
// hold only what is live — the pinned call plus one tick's intake — for
// as long as that lasts, and the others must leave in submission order.
func TestRunQStaysDenseBehindPinnedHead(t *testing.T) {
	r := newRig(1, 100000)
	r.sched.Crash() // the test drives the drain itself
	spec := rigSpec("f", function.CritNormal)
	const ticks, perTick = 10_000, 8
	bound := runQLimit + perTick
	var id uint64
	next := func() *function.Call {
		id++
		return &function.Call{ID: id, Spec: spec, Deadline: sim.Time(time.Hour)}
	}
	pinned := next()
	r.sched.runQ = append(r.sched.runQ, pinned)
	var order []uint64
	place := func(c *function.Call) (*worker.Worker, bool) {
		if c == pinned {
			return nil, false
		}
		order = append(order, c.ID)
		return r.pool[0], false
	}
	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < perTick; i++ {
			r.sched.runQ = append(r.sched.runQ, next())
		}
		r.sched.drainRunQ(place)
		if n := r.sched.RunQLen(); n != 1 || r.sched.runQ[0] != pinned {
			t.Fatalf("tick %d: RunQLen = %d, want just the pinned call", tick, n)
		}
		if l, c := len(r.sched.runQ), cap(r.sched.runQ); l > bound || c > 2*bound {
			t.Fatalf("tick %d: RunQ len %d cap %d, want within %d", tick, l, c, bound)
		}
	}
	if len(order) != ticks*perTick {
		t.Fatalf("dispatched %d calls, want %d", len(order), ticks*perTick)
	}
	for i, got := range order {
		if want := uint64(i) + 2; got != want { // IDs 2.. in submission order
			t.Fatalf("dispatch %d was call %d, want %d", i, got, want)
		}
	}
}
