package drain

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/lifecycle"
	"xfaas/internal/queuelb"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
)

// rig is two hand-wired regions (one shard, two single-threaded workers
// and one scheduler each) sharing a spine, so the test sees exactly what
// the controller and the components it drives emit.
type rig struct {
	engine *sim.Engine
	tr     *trace.Recorder
	inv    *invariant.Checker
	obs    *lifecycle.Spine
	shards [][]*durableq.Shard
	scheds []*scheduler.Scheduler
	qlbs   []*queuelb.LB
	ctl    *Controller
	idSeq  uint64
}

func newRig() *rig {
	e := sim.NewEngine()
	r := &rig{engine: e}
	tp := trace.DefaultParams()
	tp.Enabled = true
	r.tr = trace.NewRecorder(e, 1, tp)
	r.inv = invariant.NewChecker(e, invariant.Params{Enabled: true}, 2)
	r.obs = lifecycle.New(e, r.tr, r.inv, nil)

	src := rng.New(11)
	store := config.NewStore(e)
	store.Set(queuelb.PolicyKey, queuelb.RoutingPolicy{{1, 0}, {0, 1}})
	cen := ratelimit.NewCentral(e)
	cong := congestion.NewManager(e, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	for reg := 0; reg < 2; reg++ {
		sh := durableq.NewShard(durableq.ShardID{Region: cluster.RegionID(reg)}, e, src.Split())
		sh.Obs = r.obs
		r.shards = append(r.shards, []*durableq.Shard{sh})
	}
	views := make([]RegionView, 2)
	wp := worker.DefaultParams()
	wp.MaxConcurrency = 1
	for reg := 0; reg < 2; reg++ {
		id := cluster.RegionID(reg)
		var pool []*worker.Worker
		for i := 0; i < 2; i++ {
			w := worker.New(worker.ID{Region: id, Index: i}, e, wp, src.Split(), nil)
			w.Obs = r.obs
			pool = append(pool, w)
		}
		sc := scheduler.New(e, src.Split(), id, scheduler.DefaultParams(), r.shards,
			workerlb.New(src.Split(), pool), cen, cong, store)
		sc.Obs = r.obs
		r.scheds = append(r.scheds, sc)
		qlb := queuelb.New(id, src.Split(), r.shards, store)
		qlb.Obs = r.obs
		r.qlbs = append(r.qlbs, qlb)
		views[reg] = RegionView{Shards: r.shards[reg], Scheds: []*scheduler.Scheduler{sc}, Workers: pool}
	}
	r.ctl = NewController(e, views)
	r.ctl.Obs = r.obs
	for _, qlb := range r.qlbs {
		qlb.Drained = r.ctl.Draining
	}
	return r
}

// submit enters n calls at region's QueueLB the way a submitter would.
func (r *rig) submit(region int, spec *function.Spec, n int, execSecs float64, startIn time.Duration) {
	now := r.engine.Now()
	for i := 0; i < n; i++ {
		r.idSeq++
		c := &function.Call{
			ID: r.idSeq, Spec: spec, SourceRegion: cluster.RegionID(region),
			SubmitTime: now, StartAfter: now + startIn, Deadline: now + startIn + spec.Deadline,
			CPUWorkM: 10, MemMB: 10, ExecSecs: execSecs,
		}
		r.obs.Emit(c, trace.KindSubmit, 0)
		if !r.qlbs[region].RouteOK(c) {
			panic("drain rig: unroutable submission")
		}
	}
}

func spec(name string, crit function.Criticality) *function.Spec {
	return &function.Spec{Name: name, Namespace: "ns", Deadline: 6 * time.Hour, Criticality: crit, Retry: function.DefaultRetry}
}

// controlAt returns the time of the first control event of kind whose
// detail contains detail.
func (r *rig) controlAt(t *testing.T, kind, detail string) sim.Time {
	t.Helper()
	for _, e := range r.tr.Controls() {
		if e.Kind == kind && strings.Contains(e.Detail, detail) {
			return e.At
		}
	}
	t.Fatalf("no control event %s %q; log: %+v", kind, detail, r.tr.Controls())
	return 0
}

// TestDrainStages drives begin → release → migrate → timeout → quiesce →
// end on the two-region rig and checks each stage through the spine: the
// drain.* control events, the ledger note, and a closed ledger with
// nothing lost.
func TestDrainStages(t *testing.T) {
	r := newRig()
	// Region 0: four calls that outlast quiesceTimeout on two
	// single-threaded workers (two run, two wait in the scheduler), ten
	// deferred CritHigh calls (the durable backlog migration moves) and
	// five deferred CritNormal calls (time-shifted in place). Region 1
	// idles.
	r.submit(0, spec("long", function.CritNormal), 4, 250, 0)
	r.submit(0, spec("crit", function.CritHigh), 10, 1, time.Hour)
	r.submit(0, spec("defer", function.CritNormal), 5, 1, time.Hour)
	r.engine.RunFor(2 * time.Second)
	if got := r.scheds[0].InFlight(); got != 2 {
		t.Fatalf("setup: %d calls executing in region 0, want 2", got)
	}

	start := r.engine.Now()
	r.ctl.Drain(0)
	if !r.ctl.Draining(0) || r.ctl.Drains.Value() != 1 {
		t.Fatal("drain did not start")
	}
	r.ctl.Drain(0) // already draining: ignored
	r.ctl.Drain(7) // out of range: ignored
	if r.ctl.Drains.Value() != 1 {
		t.Fatal("a repeated or out-of-range drain request started an evacuation")
	}
	// Stage 1: admission stops at once; a submission entering at region 0
	// lands on region 1's shard instead of failing.
	r.submit(0, spec("rerouted", function.CritNormal), 1, 1, 0)
	if got := r.shards[1][0].Enqueued.Value(); got != 1 {
		t.Fatalf("submission during the drain: region 1 enqueued %v, want 1", got)
	}

	r.engine.RunFor(30 * time.Minute)
	if at := r.controlAt(t, "drain.begin", "r0"); at != start {
		t.Errorf("drain.begin at %s, want %s", at, start)
	}
	// Stage 2 after stageDelay: the scheduler parks and hands its two
	// waiting calls back as plain queued work.
	if at := r.controlAt(t, "drain.released", "r0"); at != start+stageDelay {
		t.Errorf("drain.released at %s, want %s", at, start+stageDelay)
	}
	if got := r.shards[0][0].Released.Value(); got != 2 {
		t.Errorf("released %v held calls, want 2", got)
	}
	// Stage 3 on the first pump: only the CritHigh backlog moves.
	r.controlAt(t, "drain.migrated", "r0 n=10 total=10")
	if out, in := r.shards[0][0].DrainedOut.Value(), r.shards[1][0].DrainedIn.Value(); out != 10 || in != 10 {
		t.Errorf("migrated out=%v in=%v, want 10 and 10", out, in)
	}
	if got := r.ctl.MigratedCalls(0); got != 10 {
		t.Errorf("MigratedCalls = %d, want 10", got)
	}
	// Stage 4: the two running calls outlast quiesceTimeout (one alarm),
	// then finish, and the RTO is reported.
	if at := r.controlAt(t, "drain.timeout", "r0"); at < start+quiesceTimeout {
		t.Errorf("drain.timeout at %s, before the %s timeout", at, quiesceTimeout)
	}
	quiesced := r.controlAt(t, "drain.quiesced", "r0 rto=")
	rto, ok := r.ctl.LastRTO(0)
	if !ok || !r.ctl.Quiesced(0) || rto != quiesced-start || rto <= quiesceTimeout {
		t.Errorf("rto=%s ok=%v quiesced at %s (drain began %s)", rto, ok, quiesced, start)
	}
	if got := r.scheds[0].Acked.Value(); got != 2 {
		t.Errorf("region 0 acked %v during the drain, want the 2 executions already running", got)
	}

	r.ctl.Undrain(0)
	r.ctl.Undrain(0) // no longer draining: ignored
	r.controlAt(t, "drain.end", "r0 migrated=10")
	if r.ctl.Draining(0) {
		t.Fatal("still draining after Undrain")
	}
	// Everything deferred comes due and runs: migrated CritHigh work in
	// region 1, the released and time-shifted work back in region 0.
	r.engine.RunFor(2 * time.Hour)
	if vs := r.inv.Violations(); len(vs) != 0 {
		t.Fatalf("drain breached the ledger: %v", vs)
	}
	tot := r.inv.Totals()
	if tot.Submitted != 20 || tot.Acked != 20 || tot.Lost != 0 || tot.InFlight != 0 || tot.Gap() != 0 {
		t.Fatalf("ledger after the drill: %+v", tot)
	}
	if a0, a1 := r.scheds[0].Acked.Value(), r.scheds[1].Acked.Value(); a0 != 9 || a1 != 11 {
		t.Errorf("acked r0=%v r1=%v, want 9 (long+deferred) and 11 (migrated+rerouted)", a0, a1)
	}
	// The released calls' traces read as zero-backoff retries, the
	// migrated calls' as migrated — through the one emit each.
	released, migrated := 0, 0
	for _, tt := range r.tr.Recent() {
		for _, ev := range tt.Events {
			switch {
			case ev.Kind == trace.KindRetry && ev.Arg == 0:
				released++
			case ev.Kind == trace.KindMigrated:
				migrated++
			}
		}
	}
	if released != 2 || migrated != 10 {
		t.Errorf("traces show %d releases and %d migrations, want 2 and 10", released, migrated)
	}
	// The drain left its note on the ledger: a later breach reads with it.
	r.obs.Emit(&function.Call{ID: 999, Spec: spec("ghost", function.CritLow)}, trace.KindEnqueue, 0)
	if vs := r.inv.Violations(); len(vs) != 1 || vs[0].Context != "drain r0" {
		t.Fatalf("violation context after a drain: %+v", vs)
	}
}
