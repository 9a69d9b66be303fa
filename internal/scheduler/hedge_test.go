package scheduler

import (
	"sort"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/lifecycle"
	"xfaas/internal/policy"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// TestHedgeEstimatorQuantile pins the estimator's edge behavior: the
// hedge-delay quantile must be sane on an empty window, a single sample,
// an all-identical window, and after the ring wraps.
func TestHedgeEstimatorQuantile(t *testing.T) {
	cases := []struct {
		name    string
		window  int
		samples []float64
		q       float64
		want    float64
	}{
		{"empty-window", 8, nil, 0.99, 0},
		{"single-sample-p0", 8, []float64{2.5}, 0, 2.5},
		{"single-sample-p50", 8, []float64{2.5}, 0.5, 2.5},
		{"single-sample-p99", 8, []float64{2.5}, 0.99, 2.5},
		{"single-sample-p100", 8, []float64{2.5}, 1, 2.5},
		{"all-identical", 8, []float64{1, 1, 1, 1, 1}, 0.9, 1},
		{"ordered-p50", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5},
		{"ordered-p99", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9},
		{"ordered-p100", 10, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1, 10},
		{"unsorted-input", 5, []float64{9, 1, 5, 3, 7}, 1, 9},
		// Ring wrap: window 4 retains {100, 2, 3, 4} after five samples.
		{"wraparound-max", 4, []float64{1, 2, 3, 4, 100}, 1, 100},
		{"wraparound-min", 4, []float64{1, 2, 3, 4, 100}, 0, 2},
		// Out-of-range q clamps instead of panicking.
		{"q-below-zero", 4, []float64{1, 2, 3}, -1, 1},
		{"q-above-one", 4, []float64{1, 2, 3}, 2, 3},
		{"zero-window-clamps", 0, []float64{4, 7}, 1, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est := newHedgeEstimator(tc.window)
			for _, s := range tc.samples {
				est.Observe(s)
			}
			if got := est.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			// Quantile must not disturb the window: asking again answers
			// the same.
			if got := est.Quantile(tc.q); got != tc.want {
				t.Fatalf("second Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestHedgeEstimatorObserveInvalidatesOrder: Quantile answers from a
// sorted copy it keeps between samples, so every Observe — while the ring
// fills, when it overwrites the oldest slot, and across a full wrap — must
// be visible to the very next Quantile, against a sort of the window done
// from scratch.
func TestHedgeEstimatorObserveInvalidatesOrder(t *testing.T) {
	const window = 4
	est := newHedgeEstimator(window)
	var seen []float64
	// Descending then ascending values, so each sample lands at a new rank.
	for i, s := range []float64{9, 7, 5, 3, 1, 2, 4, 6, 8, 10, 0, 11} {
		est.Observe(s)
		seen = append(seen, s)
		retained := append([]float64(nil), seen[max(0, len(seen)-window):]...)
		sort.Float64s(retained)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			want := retained[int(q*float64(len(retained)-1))]
			if got := est.Quantile(q); got != want {
				t.Fatalf("after sample %d (%v): Quantile(%v) = %v, want %v of window %v", i+1, s, q, got, want, retained)
			}
		}
	}
}

// TestHedgeEstimatorWarmup verifies warm-up gating counts every sample
// ever observed, not just the retained window — armHedge refuses to hedge
// a function until Samples() reaches MinSamples, and that gate must not
// reset when the ring wraps.
func TestHedgeEstimatorWarmup(t *testing.T) {
	est := newHedgeEstimator(4)
	if est.Samples() != 0 {
		t.Fatalf("fresh estimator has %d samples", est.Samples())
	}
	for i := 1; i <= 6; i++ {
		est.Observe(float64(i))
	}
	if est.Samples() != 6 {
		t.Fatalf("Samples = %d after 6 observations (window 4), want 6", est.Samples())
	}
	// The window holds only the most recent 4: {5, 6, 3, 4}.
	if got := est.Quantile(0); got != 3 {
		t.Fatalf("min of retained window = %v, want 3", got)
	}
}

// TestHedgeBudgetArithmetic pins the earn/spend bookkeeping behind the
// hedge-amplification bound: spent ≤ frac·earned + burst.
func TestHedgeBudgetArithmetic(t *testing.T) {
	// frac 0.25 is exact in binary, so the token boundary is crisp.
	b := NewHedgeBudget(0.25, 2)

	// The burst is immediately spendable.
	for i := 0; i < 2; i++ {
		if !b.Available() {
			t.Fatalf("burst token %d not available", i)
		}
		b.Spend()
	}
	if b.Available() {
		t.Fatal("token available beyond the burst with zero earnings")
	}

	// Four primaries at frac 0.25 earn exactly one more token.
	for i := 0; i < 3; i++ {
		b.Earn()
		if b.Available() {
			t.Fatalf("token available after only %d earns", i+1)
		}
	}
	b.Earn()
	if !b.Available() {
		t.Fatal("token not available after 4 earns at frac 0.25")
	}
	b.Spend()

	if got := b.Earned.Value(); got != 4 {
		t.Fatalf("Earned = %v, want 4", got)
	}
	if got := b.Spent.Value(); got != 3 {
		t.Fatalf("Spent = %v, want 3", got)
	}
	// The invariant probe's inequality holds on the counters.
	if bound := 0.25*b.Earned.Value() + 2; b.Spent.Value() > bound {
		t.Fatalf("spent %v exceeds bound %v", b.Spent.Value(), bound)
	}
}

// pinPolicy is push with every dispatch pinned to one worker, so a test
// knows which worker runs each call's primary execution.
type pinPolicy struct {
	policy.Push
	h policy.Host
	w *worker.Worker
}

func (p *pinPolicy) Attach(h policy.Host) { p.h = h }
func (p *pinPolicy) Tick() {
	p.h.DefaultPoll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DispatchWith(func(*function.Call) (*worker.Worker, bool) { return p.w, true })
}

// hedgeRig is a hedged replica over one shard and two workers, with
// every primary pinned to worker 0 and the invariant ledger on.
type hedgeRig struct {
	e     *sim.Engine
	inv   *invariant.Checker
	obs   *lifecycle.Spine
	shard *durableq.Shard
	pool  []*worker.Worker
	lb    *workerlb.LB
	s     *Scheduler
	spec  *function.Spec
	id    uint64
}

func newHedgeRig() *hedgeRig {
	r := &hedgeRig{e: sim.NewEngine()}
	r.inv = invariant.NewChecker(r.e, invariant.Params{Enabled: true}, 1)
	r.obs = lifecycle.New(r.e, nil, r.inv, nil)
	r.shard = durableq.NewShard(durableq.ShardID{}, r.e, nil)
	r.shard.Obs = r.obs
	src := rng.New(7)
	for i := 0; i < 2; i++ {
		w := worker.New(worker.ID{Index: i}, r.e, worker.DefaultParams(), src.Split(), nil)
		w.Obs = r.obs
		w.Runtime.Prewarm([]string{"f"})
		r.pool = append(r.pool, w)
	}
	r.lb = workerlb.New(src.Split(), r.pool)
	params := DefaultParams()
	params.PolicyFactory = func() policy.Policy { return &pinPolicy{w: r.pool[0]} }
	cong := congestion.NewManager(r.e, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	r.s = NewHedged(r.e, src.Split(), 0, params, [][]*durableq.Shard{{r.shard}}, r.lb,
		ratelimit.NewCentral(r.e), cong, config.NewStore(r.e), NewHedgeBudget(HedgeBudgetFrac, HedgeBudgetBurst))
	r.s.Obs = r.obs
	r.spec = rigSpec("f", function.CritHigh)
	r.spec.Retry.MaxAttempts = 1
	return r
}

// submit enqueues one call of the rig's single-attempt CritHigh function.
func (r *hedgeRig) submit(execSecs float64) *function.Call {
	r.id++
	c := &function.Call{ID: r.id, Spec: r.spec, Deadline: sim.Time(time.Hour), CPUWorkM: 10, MemMB: 10, ExecSecs: execSecs}
	r.obs.Emit(c, trace.KindSubmit, 0)
	r.shard.Enqueue(c)
	return c
}

// TestHedgeRace drives a hedged call through every order in which its
// two executions can finish, fail or be evacuated. The rig has two
// workers and pins every primary to worker 0, so the speculative copy can
// only run on worker 1. Eight 1 s completions warm the estimator, which
// puts the hedge delay at 1 s; worker 0 is then slowed so the primary of
// the next call runs slowdown × execSecs, and the row's faults strike at
// fixed offsets after the primary starts. The function allows a single
// attempt, so a Nack dead-letters the call and nothing redelivers it.
func TestHedgeRace(t *testing.T) {
	type fault struct {
		after  time.Duration // after the primary starts
		worker int
		silent bool // FailSilent: only heartbeat detection finds out
	}
	ms := time.Millisecond
	cases := []struct {
		name                    string
		slowdown, execSecs      float64
		faults                  []fault
		ack                     bool // settled by an Ack, else by a Nack
		hedged, wins, cancelled float64
		workerCancelled         [2]float64
	}{
		{"primary wins while the copy runs", 1.5, 1, nil, true, 1, 0, 1, [2]float64{0, 1}},
		{"copy wins", 3, 1, nil, true, 1, 1, 0, [2]float64{1, 0}},
		{"copy fails while the primary runs", 3, 1, []fault{{1500 * ms, 1, false}}, true, 1, 0, 0, [2]float64{}},
		{"primary fails, then the copy wins", 3, 1, []fault{{1500 * ms, 0, false}}, true, 1, 1, 0, [2]float64{}},
		{"primary fails, then the copy fails", 3, 1, []fault{{1500 * ms, 0, false}, {1700 * ms, 1, false}}, false, 1, 0, 0, [2]float64{}},
		{"primary settles before the hedge fires", 0.5, 1, nil, true, 0, 0, 0, [2]float64{}},
		{"primary fails before the hedge fires", 3, 1, []fault{{500 * ms, 0, false}}, false, 0, 0, 0, [2]float64{}},
		{"primary's worker detected dead with the copy running", 3, 30, []fault{{2 * time.Second, 0, true}}, false, 1, 0, 1, [2]float64{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newHedgeRig()
			e, shard, pool, lb, s, inv := r.e, r.shard, r.pool, r.lb, r.s, r.inv
			submit := r.submit
			for i := 0; i < hedgeMinSamples; i++ {
				submit(1)
			}
			e.RunFor(5 * time.Second)
			if got := shard.Acked.Value(); got != float64(hedgeMinSamples) {
				t.Fatalf("warm-up acked %v of %d calls", got, hedgeMinSamples)
			}

			pool[0].SetSlowdown(tc.slowdown)
			c := submit(tc.execSecs)
			for c.State != function.StateRunning && e.Now() < 10*time.Second {
				e.Step()
			}
			if c.State != function.StateRunning {
				t.Fatalf("the call never started: state %v", c.State)
			}
			for _, f := range tc.faults {
				w := pool[f.worker]
				fail := w.Fail
				if f.silent {
					// Only heartbeats find a silent death. The other rows
					// run without them, so a call a hedge path forgets to
					// settle stays in flight instead of being evacuated.
					fail = w.FailSilent
					lb.StartHealthChecks(e)
				}
				e.Schedule(f.after, fail)
			}
			e.RunFor(time.Minute)

			acks, nacks := shard.Acked.Value()-float64(hedgeMinSamples), shard.Nacked.Value()
			if want := map[bool][2]float64{true: {1, 0}, false: {0, 1}}[tc.ack]; acks != want[0] || nacks != want[1] {
				t.Errorf("shard settled the call with %v acks and %v nacks, want %v", acks, nacks, want)
			}
			if got := [3]float64{s.Hedged.Value(), s.HedgeWins.Value(), s.HedgeCancelled.Value()}; got != [3]float64{tc.hedged, tc.wins, tc.cancelled} {
				t.Errorf("Hedged, HedgeWins, HedgeCancelled = %v, want %v", got, [3]float64{tc.hedged, tc.wins, tc.cancelled})
			}
			if got := [2]float64{pool[0].Cancelled.Value(), pool[1].Cancelled.Value()}; got != tc.workerCancelled {
				t.Errorf("workers' Cancelled = %v, want %v", got, tc.workerCancelled)
			}
			if n := s.InFlight(); n != 0 {
				t.Errorf("InFlight = %d at the end, want 0", n)
			}
			if vs := inv.Final(); len(vs) > 0 {
				t.Errorf("%d invariant violations, first: %v", inv.TotalViolations(), vs[0])
			}
		})
	}
}

// TestCrashForgetsHedgeDelays: the hedge-delay estimators live in
// process memory, so a crashed and restarted replica hedges a function
// only after hedgeMinSamples new completions, however warm it was before.
func TestCrashForgetsHedgeDelays(t *testing.T) {
	r := newHedgeRig()
	// completeFast runs n one-second calls on the healthy worker 0.
	completeFast := func(n int) {
		r.pool[0].SetSlowdown(1)
		for i := 0; i < n; i++ {
			r.submit(1)
		}
		r.e.RunFor(5 * time.Second)
	}
	// slowCall runs one call whose primary outlives a one-second hedge
	// delay threefold.
	slowCall := func() {
		r.pool[0].SetSlowdown(3)
		r.submit(1)
		r.e.RunFor(time.Minute)
	}
	completeFast(hedgeMinSamples)
	r.s.Crash()
	r.s.Restart(time.Second)
	r.e.RunFor(2 * time.Second)
	completeFast(hedgeMinSamples - 2)
	slowCall() // the restarted process's completion hedgeMinSamples-1
	if got := r.s.Hedged.Value(); got != 0 {
		t.Fatalf("Hedged = %v after %d post-restart completions, want 0", got, hedgeMinSamples-1)
	}
	if got := r.shard.Acked.Value(); got != float64(2*hedgeMinSamples-1) {
		t.Fatalf("acked %v calls, want %d", got, 2*hedgeMinSamples-1)
	}
	completeFast(1)
	slowCall()
	if got := r.s.Hedged.Value(); got != 1 {
		t.Errorf("Hedged = %v once the estimator rewarmed, want 1", got)
	}
	if vs := r.inv.Final(); len(vs) > 0 {
		t.Errorf("%d invariant violations, first: %v", r.inv.TotalViolations(), vs[0])
	}
}
