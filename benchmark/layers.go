package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/congestion"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/invariant"
	"xfaas/internal/isolation"
	"xfaas/internal/journal"
	"xfaas/internal/kv"
	"xfaas/internal/queuelb"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/scheduler"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
	"xfaas/internal/stats"
	"xfaas/internal/submitter"
	"xfaas/internal/trace"
	"xfaas/internal/worker"
	"xfaas/internal/workerlb"
	"xfaas/internal/workload"
)

// layerDriver is one standalone micro-rig over a layer's public
// functions. run builds the rig, performs a fixed number of operations
// (times k, which is 1 at the reference size) and returns one value per
// metric in outs, set-up excluded from the timing.
type layerDriver struct {
	outs []metricDef
	run  func(k float64) []float64
}

// layerReps is how many times each driver runs; the median is reported.
const layerReps = 5

func ns(name string, run func(k float64) float64) layerDriver {
	return layerDriver{[]metricDef{{name, "ns"}}, func(k float64) []float64 { return []float64{run(k)} }}
}

// scaled shrinks an operation count by k, the run's size relative to the
// reference -seconds; depths and backlogs keep their size.
func scaled(ops int, k float64) int { return max(1, int(float64(ops)*k)) }

var layerDrivers = []layerDriver{
	ns("sim.schedule_fire_ns.d1k", func(k float64) float64 { return simScheduleFire(1_000, k) }),
	ns("sim.schedule_fire_ns.d100k", func(k float64) float64 { return simScheduleFire(100_000, k) }),
	ns("sim.stop_ns.d100k", simStop),
	ns("sim.ticker_ns", simTicker),
	{[]metricDef{{"sim.group_events_per_s.par", "1/s"}}, func(k float64) []float64 { return []float64{simGroup(false, k)} }},
	{[]metricDef{{"sim.group_events_per_s.seq", "1/s"}}, func(k float64) []float64 { return []float64{simGroup(true, k)} }},
	ns("workload.newcall_ns", workloadNewCall),
	{[]metricDef{{"submitter.submit_ns", "ns"}, {"submitter.submit_allocs", "count"}}, submitterSubmit},
	ns("queuelb.route_ns", queuelbRoute),
	ns("durableq.enqueue_ns", durableqEnqueue),
	ns("durableq.poll_ns_per_call.b1k", func(k float64) float64 { return durableqPoll(1_000, 0, k) }),
	ns("durableq.poll_ns_per_call.b100k_deferred", func(k float64) float64 { return durableqPoll(100_000, 0.9, k) }),
	ns("durableq.ack_ns", func(k float64) float64 { return durableqSettle((*durableq.Shard).Ack, k) }),
	ns("durableq.nack_ns", func(k float64) float64 { return durableqSettle((*durableq.Shard).Nack, k) }),
	ns("durableq.renew_ns", func(k float64) float64 { return durableqSettle((*durableq.Shard).Renew, k) }),
	ns("journal.append_ns", journalAppend),
	ns("journal.flush_ns.live32k", journalFlush),
	ns("scheduler.tick_ns.idle", func(float64) float64 { return schedulerTick(0) }),
	ns("scheduler.tick_ns.backlog10k", func(float64) float64 { return schedulerTick(10_000) }),
	ns("workerlb.dispatch_ns", workerlbDispatch),
	ns("worker.exec_finish_ns", workerExecFinish),
	ns("worker.cancel_ns", workerCancel),
	ns("trace.record_ns", traceRecord),
	ns("invariant.hook_ns", invariantHook),
	ns("slo.observe_ns", sloObserve),
}

// runLayerDrivers returns every driver metric's median over layerReps
// runs at size k.
func runLayerDrivers(k float64) map[string]float64 {
	out := make(map[string]float64)
	for _, d := range layerDrivers {
		vals := make([][]float64, len(d.outs))
		for rep := 0; rep < layerReps; rep++ {
			for i, v := range d.run(k) {
				vals[i] = append(vals[i], v)
			}
		}
		for i, m := range d.outs {
			out[m.name] = stats.ExactQuantile(vals[i], 0.5)
		}
	}
	return out
}

// perOp times f and returns nanoseconds per operation.
func perOp(ops int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(ops)
}

var layerSink any

const layerFuncs = 192

func layerSpecs(n int) []*function.Spec {
	specs := make([]*function.Spec, n)
	for i := range specs {
		specs[i] = &function.Spec{
			Name: fmt.Sprintf("fn-%03d", i), Namespace: "main", Runtime: "php", Team: "team",
			Trigger: function.TriggerQueue, Deadline: 24 * time.Hour, QuotaMIPS: 1e9,
			Retry: function.RetryPolicy{MaxAttempts: 1 << 30, Backoff: time.Second},
			Zone:  isolation.NewZone(isolation.Internal),
			Resources: function.ResourceModel{
				CPUMu: math.Log(10), CPUSigma: 0.3, MemMu: math.Log(8), MemSigma: 0.3,
				TimeMu: math.Log(0.05), TimeSigma: 0.3, CodeMB: 8, JITCodeMB: 4,
			},
		}
	}
	return specs
}

// layerCalls builds n submitted-looking calls round-robin over specs;
// the first deferred share of them become ready an hour from now.
func layerCalls(n int, specs []*function.Spec, deferred float64) []*function.Call {
	calls := make([]*function.Call, n)
	src := rng.New(11)
	for i := range calls {
		c := &function.Call{
			ID: uint64(i + 1), Spec: specs[i%len(specs)], Deadline: 24 * time.Hour,
			CPUWorkM: 10, MemMB: 8, ExecSecs: 0.05,
		}
		if src.Float64() < deferred {
			c.StartAfter = time.Hour
		}
		calls[i] = c
	}
	return calls
}

// delays is a fixed table of pseudo-random event delays up to 1 s.
func delays() []time.Duration {
	src := rng.New(7)
	d := make([]time.Duration, 4096)
	for i := range d {
		d[i] = time.Duration(src.Intn(int(time.Second)))
	}
	return d
}

// simScheduleFire: schedule one event and fire the earliest, with depth
// events pending throughout.
func simScheduleFire(depth int, k float64) float64 {
	e := sim.NewEngine()
	fn := func() {}
	d := delays()
	for i := 0; i < depth; i++ {
		e.Schedule(d[i%len(d)], fn)
	}
	ops := scaled(1_000_000, k)
	return perOp(ops, func() {
		for i := 0; i < ops; i++ {
			e.Schedule(d[i%len(d)], fn)
			e.Step()
		}
	})
}

// simStop: cancel timers out of a heap that holds 100k others.
func simStop(k float64) float64 {
	e := sim.NewEngine()
	fn := func() {}
	d := delays()
	ops := scaled(100_000, k)
	timers := make([]sim.Timer, ops)
	for i := 0; i < 100_000; i++ {
		e.Schedule(d[i%len(d)], fn)
	}
	for i := range timers {
		timers[i] = e.Schedule(d[(i*7+3)%len(d)], fn)
	}
	return perOp(ops, func() {
		for _, t := range timers {
			t.Stop()
		}
	})
}

// simTicker: 1000 one-second tickers for 1000 simulated seconds.
func simTicker(k float64) float64 {
	e := sim.NewEngine()
	n := 0
	for i := 0; i < 1000; i++ {
		e.Every(time.Second, func() { n++ })
	}
	secs := scaled(1000, k)
	return perOp(1000*secs, func() { e.RunFor(time.Duration(secs) * time.Second) })
}

// simGroup: four partitions of 64 millisecond tickers, every 16th tick
// sending one message to the next partition at the edge lookahead.
func simGroup(seq bool, k float64) float64 {
	const parts, lookahead = 4, 5 * time.Millisecond
	g := sim.NewGroup(parts, func(int, int) time.Duration { return lookahead })
	noop := func() {}
	for p := 0; p < parts; p++ {
		e, next, n := g.Part(p), (p+1)%parts, 0
		for k := 0; k < 64; k++ {
			e.Every(time.Millisecond, func() {
				if n++; n%16 == 0 {
					e.Send(next, lookahead, noop)
				}
			})
		}
	}
	deadline := time.Duration(scaled(4000, k)) * time.Millisecond
	t0 := time.Now()
	if seq {
		g.RunUntilSeq(deadline)
	} else {
		g.RunUntil(deadline)
	}
	return float64(g.Processed()) / time.Since(t0).Seconds()
}

func workloadNewCall(k float64) float64 {
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = layerFuncs
	pop := workload.NewPopulation(pcfg, rng.New(1))
	ops := scaled(1_000_000, k)
	return perOp(ops, func() {
		for i := 0; i < ops; i++ {
			layerSink = pop.Models[i%len(pop.Models)].NewCall(0)
		}
	})
}

func layerShards(e *sim.Engine, n int) []*durableq.Shard {
	shards := make([]*durableq.Shard, n)
	src := rng.New(5)
	for i := range shards {
		shards[i] = durableq.NewShard(durableq.ShardID{Index: i}, e, src.Split())
	}
	return shards
}

func layerQueueLB(e *sim.Engine) *queuelb.LB {
	store := config.NewStore(e)
	store.Set(queuelb.PolicyKey, queuelb.RoutingPolicy{{1}})
	return queuelb.New(0, rng.New(2), [][]*durableq.Shard{layerShards(e, 4)}, store)
}

// submitterSubmit: Submit on a lone submitter over a QueueLB and four
// shards, calls built beforehand; every 64th submit flushes a batch
// through Route and Enqueue, as on the platform.
func submitterSubmit(k float64) []float64 {
	e := sim.NewEngine()
	params := submitter.DefaultParams()
	params.NormalClientRPS, params.NormalClientBurst = 1e12, 1e12
	var idSeq uint64
	s := submitter.New(e, 0, submitter.PoolNormal, params, layerQueueLB(e), kv.NewStore(64), rng.New(3), &idSeq)
	ops := scaled(200_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nsPerOp := perOp(ops, func() {
		for _, c := range calls {
			if err := s.Submit("client", c); err != nil {
				panic(err)
			}
		}
	})
	runtime.ReadMemStats(&m1)
	return []float64{nsPerOp, float64(m1.Mallocs-m0.Mallocs) / float64(ops)}
}

func queuelbRoute(k float64) float64 {
	lb := layerQueueLB(sim.NewEngine())
	ops := scaled(200_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	return perOp(ops, func() {
		for _, c := range calls {
			lb.Route(c)
		}
	})
}

func durableqEnqueue(k float64) float64 {
	sh := layerShards(sim.NewEngine(), 1)[0]
	ops := scaled(200_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	return perOp(ops, func() {
		for _, c := range calls {
			sh.Enqueue(c)
		}
	})
}

// durableqPoll: PollInto in batches of 64 against a standing backlog, of
// which a deferred share is not ready for another hour. Polled calls are
// acked and replaced outside the timing, so the backlog keeps its size.
func durableqPoll(backlog int, deferred, k float64) float64 {
	sh := layerShards(sim.NewEngine(), 1)[0]
	specs := layerSpecs(layerFuncs)
	for _, c := range layerCalls(backlog, specs, deferred) {
		sh.Enqueue(c)
	}
	const batch = 64
	polls := scaled(2_000, k)
	id := uint64(backlog)
	var spent time.Duration
	polled := 0
	var buf []*function.Call
	for i := 0; i < polls; i++ {
		t0 := time.Now()
		buf = sh.PollInto(buf[:0], batch, nil)
		spent += time.Since(t0)
		polled += len(buf)
		for _, c := range buf {
			sh.Ack(c.ID)
			id++
			sh.Enqueue(&function.Call{ID: id, Spec: c.Spec, Deadline: c.Deadline, CPUWorkM: 10, MemMB: 8, ExecSecs: 0.05})
		}
	}
	return float64(spent) / float64(polled)
}

// durableqSettle: lease 100k calls, then time op on each lease.
func durableqSettle(op func(*durableq.Shard, uint64) bool, k float64) float64 {
	sh := layerShards(sim.NewEngine(), 1)[0]
	ops := scaled(100_000, k)
	for _, c := range layerCalls(ops, layerSpecs(layerFuncs), 0) {
		sh.Enqueue(c)
	}
	leased := sh.Poll(ops, nil)
	return perOp(len(leased), func() {
		for _, c := range leased {
			op(sh, c.ID)
		}
	})
}

func journalAppend(k float64) float64 {
	l := journal.New(sim.NewEngine(), 100*time.Millisecond)
	ops := scaled(1_000_000, k)
	calls := layerCalls(1024, layerSpecs(1), 0)
	return perOp(ops, func() {
		for i := 0; i < ops; i++ {
			l.Append(journal.OpEnqueue, calls[i%len(calls)], 0)
		}
	})
}

// journalFlush: a log holding 32k records of unsettled calls, which is
// past the compaction threshold, so every flush tick compacts. Each round
// appends 256 settled calls (untimed) and times the flush that drops them.
func journalFlush(k float64) float64 {
	const lag = 100 * time.Millisecond
	e := sim.NewEngine()
	l := journal.New(e, lag)
	for _, c := range layerCalls(32_768, layerSpecs(1), 0) {
		l.Append(journal.OpEnqueue, c, 0)
	}
	settled := layerCalls(256, layerSpecs(1), 0)
	for _, c := range settled {
		c.ID += 1 << 20
	}
	flushes := scaled(200, k)
	var spent time.Duration
	for i := 0; i < flushes; i++ {
		for _, c := range settled {
			l.Append(journal.OpEnqueue, c, 0)
			l.Append(journal.OpAck, c, 0)
		}
		t0 := time.Now()
		e.RunFor(lag)
		spent += time.Since(t0)
	}
	if l.Len() != 32_768 {
		panic(fmt.Sprintf("journal driver: %d records retained, want 32768", l.Len()))
	}
	return float64(spent) / float64(flushes)
}

// layerPool is 64 workers roomy enough that none ever rejects.
func layerPool(e *sim.Engine) []*worker.Worker {
	wp := worker.DefaultParams()
	wp.MaxConcurrency = 1 << 20
	wp.CPUMIPS, wp.MemoryMB = 1e12, 1e9
	src := rng.New(9)
	pool := make([]*worker.Worker, 64)
	for i := range pool {
		pool[i] = worker.New(worker.ID{Index: i}, e, wp, src.Split(), nil)
	}
	return pool
}

// schedulerTick: one scheduler over two shards holding 192 functions,
// each with deferred calls (so an idle tick still scans them), plus
// backlog ready calls that execute for an hour. Ten ticks are timed.
func schedulerTick(backlog int) float64 {
	e := sim.NewEngine()
	shards := layerShards(e, 2)
	specs := layerSpecs(layerFuncs)
	for i, c := range layerCalls(10*layerFuncs, specs, 1) {
		shards[i%2].Enqueue(c)
	}
	for i, c := range layerCalls(backlog, specs, 0) {
		c.ID += 1 << 20
		c.ExecSecs = 3600
		shards[i%2].Enqueue(c)
	}
	lb := workerlb.New(rng.New(4), layerPool(e))
	cong := congestion.NewManager(e, congestion.DefaultAIMDParams(), congestion.DefaultSlowStartParams())
	layerSink = scheduler.New(e, rng.New(6), 0, scheduler.DefaultParams(), [][]*durableq.Shard{shards},
		lb, ratelimit.NewCentral(e), cong, config.NewStore(e))
	const ticks = 10
	return perOp(ticks, func() { e.RunFor(ticks * scheduler.DefaultParams().PollInterval) })
}

func workerlbDispatch(k float64) float64 {
	e := sim.NewEngine()
	lb := workerlb.New(rng.New(4), layerPool(e))
	ops := scaled(200_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	done := func(*function.Call, error) {}
	return perOp(ops, func() {
		for _, c := range calls {
			lb.Dispatch(c, done)
		}
	})
}

// workerExecFinish: TryExecute plus the completion event, per call.
func workerExecFinish(k float64) float64 {
	e := sim.NewEngine()
	w := layerPool(e)[0]
	ops := scaled(200_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	done := func(*function.Call, error) {}
	return perOp(ops, func() {
		for i, c := range calls {
			w.TryExecute(c, done)
			if i%256 == 255 {
				e.RunFor(time.Minute)
			}
		}
		e.RunFor(time.Minute)
	})
}

func workerCancel(k float64) float64 {
	e := sim.NewEngine()
	w := layerPool(e)[0]
	ops := scaled(100_000, k)
	calls := layerCalls(ops, layerSpecs(layerFuncs), 0)
	done := func(*function.Call, error) {}
	for _, c := range calls {
		w.TryExecute(c, done)
	}
	return perOp(ops, func() {
		for _, c := range calls {
			w.Cancel(c.ID)
		}
	})
}

// traceRecord: OnSubmit plus four lifecycle records per call, every call
// sampled; the reported time is per recorded event.
func traceRecord(k float64) float64 {
	params := trace.DefaultParams()
	params.Enabled = true
	r := trace.NewRecorder(sim.NewEngine(), 1, params)
	calls := scaled(100_000, k)
	cs := layerCalls(calls, layerSpecs(layerFuncs), 0)
	kinds := []trace.Kind{trace.KindEnqueue, trace.KindLease, trace.KindExecStart, trace.KindAck}
	return perOp(calls*(1+len(kinds)), func() {
		for _, c := range cs {
			r.OnSubmit(c)
			for _, k := range kinds {
				r.Record(c, k, 0)
			}
		}
	})
}

// invariantHook: the six ledger hooks of a call that succeeds first time.
func invariantHook(k float64) float64 {
	params := invariant.DefaultParams()
	params.Enabled = true
	ck := invariant.NewChecker(sim.NewEngine(), params, 1)
	calls := scaled(100_000, k)
	cs := layerCalls(calls, layerSpecs(layerFuncs), 0)
	return perOp(calls*6, func() {
		for _, c := range cs {
			ck.OnSubmit(c)
			ck.OnEnqueue(c)
			ck.OnLease(c)
			ck.OnDispatch(c, 0, 0)
			ck.OnComplete(c, 0, 0)
			ck.OnAck(c)
		}
	})
}

func sloObserve(k float64) float64 {
	eng := slo.NewEngine(stats.NewRegistry(), config.DefaultObserve().EnableAll(), func(string, string) {})
	ops := scaled(1_000_000, k)
	cs := layerCalls(1024, layerSpecs(layerFuncs), 0)
	return perOp(ops, func() {
		for i := 0; i < ops; i++ {
			eng.Observe(cs[i%len(cs)], time.Duration(i)*time.Millisecond)
		}
	})
}
