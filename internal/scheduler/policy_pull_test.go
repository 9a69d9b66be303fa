package scheduler

import (
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/policy"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// TestPullPolicyDrawSequence pins the pull policy's RNG discipline, the
// pull-side twin of TestEvacuateSweepsBuffersInSortedOrder's evacuation
// pin. The pull policy's source is split from the scheduler's at a fixed
// construction point, and each dispatch with a tied candidate set makes
// exactly one Intn(len(ties)) draw over the pool in pool order — so with
// zero-CPU calls (every worker stays at load 0, the tie set is always
// the whole pool) the i-th dispatched call must land on the worker at
// the i-th mirrored draw. Any map iteration or arrival-order dependence
// in the worker pull-order breaks the replay.
func TestPullPolicyDrawSequence(t *testing.T) {
	const seed = 42
	const workers = 3
	const calls = 24

	engine := sim.NewEngine()
	store := config.NewStore(engine)
	shard := durableq.NewShard(durableq.ShardID{}, engine, nil)
	rec := trace.NewRecorder(engine, 1, trace.Params{
		Enabled: true, SampleEvery: 1, RingSize: 256,
	})
	src := rng.New(seed)
	wp := worker.DefaultParams()
	var pool []*worker.Worker
	for i := 0; i < workers; i++ {
		pool = append(pool, worker.New(worker.ID{Index: i}, engine, wp, src.Split(), nil))
	}
	lb := workerlb.New(src.Split(), pool)
	cen := ratelimit.NewCentral(engine)
	cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())

	params := DefaultParams()
	params.Policy = config.PolicyPull
	schedSrc := src.Split()
	sched := New(engine, schedSrc, 0, params, [][]*durableq.Shard{{shard}}, lb, cen, cong, store)
	sched.Obs = lifecycle.New(engine, rec, nil, nil)
	if _, ok := sched.pol.(*policy.Pull); !ok {
		t.Fatalf("installed policy %T", sched.pol)
	}

	// Mirror the policy stream: New attaches the policy before anything
	// else touches the scheduler's source, and Pull.Attach splits the
	// policy RNG as its first act — so the mirror is one Split from an
	// identical parent. Reconstructing the parent requires replaying the
	// test's own draws: rng.New(seed) splits per-worker sources, the LB
	// source, then the scheduler source, in that order.
	mirrorParent := rng.New(seed)
	for i := 0; i < workers+1; i++ {
		mirrorParent.Split()
	}
	polDraws := mirrorParent.Split().Split()

	spec := &function.Spec{
		Name: "zero", Namespace: "ns", Deadline: time.Hour,
		Criticality: function.CritNormal, Retry: function.DefaultRetry,
	}
	for id := uint64(1); id <= calls; id++ {
		c := &function.Call{
			ID: id, Spec: spec,
			// Distinct ascending deadlines pin the buffer pop order to ID
			// order, so "i-th dispatch" is well defined.
			Deadline: sim.Time(time.Hour) + sim.Time(id)*sim.Time(time.Second),
			// Zero CPU work: loads stay exactly 0 and every worker ties.
			CPUWorkM: 0, MemMB: 1, ExecSecs: 0.1,
		}
		shard.Enqueue(c)
		rec.OnSubmit(c)
	}

	engine.RunFor(2 * time.Second) // one tick polls, schedules and dispatches everything
	if got := sched.Dispatched.Value(); got != calls {
		t.Fatalf("dispatched %v of %d calls", got, calls)
	}

	for id := uint64(1); id <= calls; id++ {
		want := polDraws.Intn(workers)
		tr := rec.Find(id)
		if tr == nil {
			t.Fatalf("no trace for call %d", id)
		}
		got := -1
		for _, ev := range tr.Events {
			if ev.Kind == trace.KindDispatch {
				_, got = trace.SplitRef(ev.Arg)
			}
		}
		if got != want {
			t.Fatalf("call %d pulled by worker %d, want %d (draw-sequence replay diverged)", id, got, want)
		}
	}
}

// TestPullPolicyRespectsPerTickCap: at the shipped cap of 32 calls per
// worker per tick and a single usable worker, each tick pulls at most 32
// calls no matter how deep the RunQ is — the cap is the guard against one
// idle machine draining the whole queue before its load catches up.
func TestPullPolicyRespectsPerTickCap(t *testing.T) {
	engine := sim.NewEngine()
	store := config.NewStore(engine)
	shard := durableq.NewShard(durableq.ShardID{}, engine, nil)
	src := rng.New(7)
	wp := worker.DefaultParams()
	pool := []*worker.Worker{worker.New(worker.ID{Index: 0}, engine, wp, src.Split(), nil)}
	lb := workerlb.New(src.Split(), pool)
	cen := ratelimit.NewCentral(engine)
	cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())

	params := DefaultParams()
	params.Policy = config.PolicyPull
	sched := New(engine, src.Split(), 0, params, [][]*durableq.Shard{{shard}}, lb, cen, cong, store)

	spec := &function.Spec{
		Name: "zero", Namespace: "ns", Deadline: time.Hour,
		Criticality: function.CritNormal, Retry: function.DefaultRetry,
	}
	for id := uint64(1); id <= 40; id++ {
		shard.Enqueue(&function.Call{
			ID: id, Spec: spec, Deadline: sim.Time(time.Hour),
			CPUWorkM: 0, MemMB: 1, ExecSecs: 0.01,
		})
	}
	engine.RunFor(1500 * time.Millisecond) // exactly one tick
	if got := sched.Dispatched.Value(); got != 32 {
		t.Fatalf("dispatched %v calls on the first tick at a cap of 32, want 32", got)
	}
	engine.RunFor(time.Second)
	if got := sched.Dispatched.Value(); got != 40 {
		t.Fatalf("dispatched %v calls after two ticks, want 40", got)
	}
}

// probePolicy wraps the push pipeline and records every OnScheduled call
// — the admission-order oracle the deadline-ordering property test in
// internal/proptest uses via Params.PolicyFactory.
type probePolicy struct {
	policy.Base
	h   policy.Host
	seq []*function.Call
}

func (p *probePolicy) Attach(h policy.Host) { p.h = h }
func (p *probePolicy) Tick() {
	p.h.DefaultPoll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DefaultDispatch()
}
func (p *probePolicy) OnScheduled(c *function.Call) { p.seq = append(p.seq, c) }

// TestPolicyFactoryOverride: a PolicyFactory wins over Policy by name and
// observes every scheduled call.
func TestPolicyFactoryOverride(t *testing.T) {
	engine := sim.NewEngine()
	store := config.NewStore(engine)
	shard := durableq.NewShard(durableq.ShardID{}, engine, nil)
	src := rng.New(7)
	wp := worker.DefaultParams()
	wp.CPUMIPS = 100000
	pool := []*worker.Worker{worker.New(worker.ID{Index: 0}, engine, wp, src.Split(), nil)}
	lb := workerlb.New(src.Split(), pool)
	cen := ratelimit.NewCentral(engine)
	cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())

	probe := &probePolicy{}
	params := DefaultParams()
	params.Policy = config.PolicyPull // must be ignored
	params.PolicyFactory = func() policy.Policy { return probe }
	sched := New(engine, src.Split(), 0, params, [][]*durableq.Shard{{shard}}, lb, cen, cong, store)
	if sched.pol != probe {
		t.Fatal("PolicyFactory did not override the named policy")
	}

	spec := &function.Spec{
		Name: "f", Namespace: "ns", Deadline: time.Hour,
		Criticality: function.CritNormal, Retry: function.DefaultRetry,
	}
	for id := uint64(1); id <= 20; id++ {
		shard.Enqueue(&function.Call{
			ID: id, Spec: spec, Deadline: sim.Time(time.Hour),
			CPUWorkM: 10, MemMB: 1, ExecSecs: 0.01,
		})
	}
	engine.RunFor(time.Minute)
	if len(probe.seq) != 20 {
		t.Fatalf("probe observed %d scheduled calls, want 20", len(probe.seq))
	}
}

// TestForecastPoliciesDriveHostSurface runs the prewarm and spes policies
// against a real scheduler: forecast-scaled polling, periodic JIT
// pre-warming, utilization-gated opportunistic admission and the
// wall-clock hook all execute against live workers, and every enqueued
// call still dispatches.
func TestForecastPoliciesDriveHostSurface(t *testing.T) {
	for _, name := range []string{config.PolicyPrewarm, config.PolicySPES} {
		engine := sim.NewEngine()
		store := config.NewStore(engine)
		shard := durableq.NewShard(durableq.ShardID{}, engine, nil)
		src := rng.New(11)
		wp := worker.DefaultParams()
		pool := []*worker.Worker{worker.New(worker.ID{Index: 0}, engine, wp, src.Split(), nil)}
		lb := workerlb.New(src.Split(), pool)
		cen := ratelimit.NewCentral(engine)
		cong := congestion.NewManager(engine, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())

		params := DefaultParams()
		params.Policy = name
		sched := New(engine, src.Split(), 0, params, [][]*durableq.Shard{{shard}}, lb, cen, cong, store)

		spec := &function.Spec{
			Name: "steady", Namespace: "ns", Deadline: time.Hour,
			Criticality: function.CritNormal, Retry: function.DefaultRetry,
			Resources: function.ResourceModel{CodeMB: 10, JITCodeMB: 5},
		}
		for id := uint64(1); id <= 30; id++ {
			shard.Enqueue(&function.Call{
				ID: id, Spec: spec, Deadline: sim.Time(time.Hour),
				CPUWorkM: 10, MemMB: 1, ExecSecs: 0.01,
			})
		}
		engine.RunFor(time.Minute)
		if got := sched.Dispatched.Value(); got != 30 {
			t.Fatalf("%s: dispatched %v of 30 calls", name, got)
		}
		// The periodic pre-warm pass must have warmed the one hot
		// function: its next execution runs at full JIT speed.
		if speed := pool[0].Runtime.SpeedFactor(spec.Name, engine.Now()); speed != 1 {
			t.Fatalf("%s: hot function speed factor %v after pre-warm passes, want 1", name, speed)
		}
	}
}

// TestFuncBufferPeek: Peek returns the minimal call without removing it;
// an empty buffer peeks nil.
func TestFuncBufferPeek(t *testing.T) {
	spec := rigSpec("f", function.CritNormal)
	b := NewFuncBuffer(spec)
	if b.Peek() != nil {
		t.Fatal("empty buffer peeked a call")
	}
	late := &function.Call{ID: 1, Spec: spec, Deadline: sim.Time(2 * time.Hour)}
	early := &function.Call{ID: 2, Spec: spec, Deadline: sim.Time(time.Hour)}
	b.Push(late)
	b.Push(early)
	if got := b.Peek(); got != early {
		t.Fatalf("peek = %v, want the earlier deadline", got)
	}
	if b.Len() != 2 {
		t.Fatalf("peek removed a call: len %d", b.Len())
	}
}

// TestGateOpportunisticDefersPolling: with the gate closed (the SPES
// policy's pressure valve), opportunistic-quota calls wait durably in
// the shard; reopening the gate releases them.
func TestGateOpportunisticDefersPolling(t *testing.T) {
	r := newRig(1, 1000)
	spec := rigSpec("opp", function.CritNormal)
	spec.Quota = function.QuotaOpportunistic
	r.sched.GateOpportunistic(true)
	r.enqueue(spec, 5)
	r.engine.RunFor(5 * time.Second)
	if got := r.sched.Dispatched.Value(); got != 0 {
		t.Fatalf("gated scheduler dispatched %v opportunistic calls", got)
	}
	if r.shard.Pending() != 5 {
		t.Fatalf("deferred calls left the shard: pending %d", r.shard.Pending())
	}
	r.sched.GateOpportunistic(false)
	r.engine.RunFor(10 * time.Second)
	if got := r.sched.Dispatched.Value(); got != 5 {
		t.Fatalf("ungated scheduler dispatched %v of 5", got)
	}
}

// TestDispatchWithSweepsExpired: the policy-driven dispatch loop applies
// the same expiry sweep as the default path — an expired RunQ entry is
// terminated, counted, and never offered to the picker.
func TestDispatchWithSweepsExpired(t *testing.T) {
	r := newRig(1, 1000)
	r.sched.SweepExpired = true
	spec := rigSpec("doomed", function.CritNormal)
	r.engine.RunFor(10 * time.Second) // move the clock past the doomed deadline
	expired := &function.Call{ID: 1, Spec: spec, Deadline: sim.Time(time.Second)}
	live := &function.Call{ID: 2, Spec: spec, Deadline: sim.Time(time.Hour), CPUWorkM: 1, MemMB: 1, ExecSecs: 0.01}
	// Calls reach the RunQ through AllowDispatch (which acquires the
	// concurrency slot the sweep later releases); mirror that here.
	for _, c := range []*function.Call{expired, live} {
		if !r.cong.AllowDispatch(c.Spec) {
			t.Fatal("congestion denied an idle-system dispatch")
		}
		r.sched.runQ = append(r.sched.runQ, c)
	}

	offered := 0
	r.sched.DispatchWith(func(c *function.Call) (*worker.Worker, bool) {
		offered++
		if c == expired {
			t.Fatal("expired call offered to the picker")
		}
		return r.pool[0], true
	})
	if offered != 1 {
		t.Fatalf("picker saw %d calls, want just the live one", offered)
	}
	if got := r.sched.ExpiredSwept.Value(); got != 1 {
		t.Fatalf("ExpiredSwept = %v, want 1", got)
	}
	if n := r.sched.RunQLen(); n != 0 {
		t.Fatalf("RunQLen = %d after sweep+dispatch, want 0", n)
	}
}
