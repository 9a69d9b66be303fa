// Package worker models an XFaaS worker (paper §4.5): a server that keeps
// its language runtime hot, executes many functions concurrently in one
// process, loads pre-pushed function code from local SSD with no cold
// start, JIT-compiles per the cooperative JIT model, and bounds its memory
// with an LRU code cache. Workers reject work they cannot fit; the
// WorkerLB and scheduler flow control handle the rejection.
package worker

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/downstream"
	"xfaas/internal/function"
	"xfaas/internal/jit"
	"xfaas/internal/lifecycle"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/slo"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

// ID identifies a worker within a region's pool.
type ID struct {
	Region cluster.RegionID
	Index  int
}

func (id ID) String() string { return fmt.Sprintf("w-%d-%d", id.Region, id.Index) }

// Params describe one worker's hardware and runtime model. The paper's
// workers have 64 GB of memory (§5.2).
type Params struct {
	// MemoryMB is total server memory.
	MemoryMB float64
	// CPUMIPS is the server's sustained instruction rate (millions of
	// instructions per second across all cores).
	CPUMIPS float64
	// CoreMIPS is a single thread's instruction rate: a call can never
	// consume CPU faster than this, so CPU-bound calls stretch in time
	// instead of demanding impossible rates.
	CoreMIPS float64
	// MaxConcurrency caps simultaneously running calls (runtime threads).
	MaxConcurrency int
	// FailureSlowdown scales how much of the nominal duration a failed
	// invocation still occupies the worker (exceptions surface quickly).
	FailureSlowdown float64
}

// DefaultParams return a paper-plausible worker: 64 GB, high core count.
func DefaultParams() Params {
	return Params{
		MemoryMB:        64 * 1024,
		CPUMIPS:         100_000,
		CoreMIPS:        4_000,
		MaxConcurrency:  64,
		FailureSlowdown: 0.05,
	}
}

const (
	// RuntimeBaseMB is the always-resident runtime footprint.
	RuntimeBaseMB float64 = 6 * 1024
	// downstreamRetries is how many times a failed (non-back-pressure)
	// downstream sub-call is retried within one invocation — the retry
	// amplification of §4.6.3's incident.
	downstreamRetries int = 2
)

type codeEntry struct {
	mb       float64
	lastUsed sim.Time
	active   int
}

// ErrWorkerFailed is delivered to the completion callback of every call
// in flight on a worker that dies; the scheduler NACKs such calls so the
// DurableQ redelivers them elsewhere (at-least-once).
var ErrWorkerFailed = errors.New("worker: failed")

// DoneFunc observes a call's completion. Taking the call as a parameter
// (rather than capturing it) lets dispatchers pass one long-lived
// function instead of allocating a closure per dispatched call.
type DoneFunc func(*function.Call, error)

// runningCall tracks one in-flight invocation. Objects are pooled per
// worker, and fire — the completion-timer callback — is built once per
// object, so the execute path allocates nothing in steady state.
type runningCall struct {
	call     *function.Call
	cpuRate  float64
	memMB    float64
	timer    sim.Timer
	done     DoneFunc
	err      error
	duration time.Duration
	fire     func()
}

// Worker is one simulated server.
type Worker struct {
	ID     ID
	engine *sim.Engine
	params Params
	// Runtime is the worker's JIT state; exported so the code-push
	// distributor can target it.
	Runtime *jit.Runtime

	downstreams *downstream.Registry

	failed bool
	// slowdown stretches every execution (and health-probe response) by
	// this factor; 1 is nominal. A gray worker runs at 5–20% speed, i.e.
	// slowdown 5–20, without dying — the hardest failure mode to detect.
	slowdown float64
	running  map[uint64]*runningCall
	freeRC   []*runningCall
	cpuInUse float64
	workMem  float64
	codeMB   float64
	// idleCodeMB is the resident code no running call holds: what eviction
	// could free. Kept where an entry's active count crosses zero and on
	// load/evict, so admission never sums the code map in Go map order.
	idleCodeMB float64
	code       map[string]*codeEntry
	seen       map[string]sim.Time

	Executions    stats.Counter
	Rejections    stats.Counter
	Failures      stats.Counter
	Backpressured stats.Counter
	CodeEvictions stats.Counter
	// ColdExecutions counts executions started under a JIT speed factor
	// above 1 (cold or still-profiling code) — the cold-start exposure
	// the policy matrix reports.
	ColdExecutions stats.Counter
	// Cancelled counts executions cancelled mid-flight (a hedged dispatch
	// elsewhere finished first).
	Cancelled stats.Counter

	// DeadlineRetryCut, when set (the platform's expiry sweep), propagates
	// the call's remaining deadline into the downstream retry loop: a call
	// that can no longer finish before its deadline gets no downstream
	// retries, so doomed work stops amplifying load on a struggling
	// service.
	DeadlineRetryCut bool

	// Obs, when set, hears execution start/end for sampled calls.
	Obs *lifecycle.Spine
	// Acct, when set, is this worker's core-second meter: execution
	// start/finish adjust its busy-core rate so busy + idle core-seconds
	// close exactly against capacity × elapsed (nil-safe, no allocation).
	Acct *slo.WorkerMeter
}

// New returns an idle worker. downstreams may be nil when the workload
// never calls out. The source is ignored: it remains in the signature
// only because benchmark/ passes one.
func New(id ID, engine *sim.Engine, params Params, _ *rng.Source, ds *downstream.Registry) *Worker {
	if params.MemoryMB <= RuntimeBaseMB {
		panic("worker: memory smaller than runtime footprint")
	}
	return &Worker{
		ID:          id,
		engine:      engine,
		params:      params,
		Runtime:     jit.NewRuntime(),
		downstreams: ds,
		slowdown:    1,
		running:     make(map[uint64]*runningCall),
		code:        make(map[string]*codeEntry),
		seen:        make(map[string]sim.Time),
	}
}

// Params returns the worker's configuration.
func (w *Worker) Params() Params { return w.params }

// Load returns the worker's CPU load fraction (0..1+); the WorkerLB's
// power-of-two choice compares this. Floating-point release arithmetic
// can leave a hair below zero; clamp it.
func (w *Worker) Load() float64 {
	l := w.cpuInUse / w.params.CPUMIPS
	if l < 0 {
		return 0
	}
	return l
}

// Running returns the number of in-flight calls.
func (w *Worker) Running() int { return len(w.running) }

// MemUsedMB returns total resident memory: runtime + code caches +
// working sets.
func (w *Worker) MemUsedMB() float64 {
	return RuntimeBaseMB + w.codeMB + w.workMem
}

// CPUUtilization returns instantaneous CPU utilization in [0, 1].
func (w *Worker) CPUUtilization() float64 {
	u := w.Load()
	u = min(u, 1)
	return u
}

// AccountingDrift recomputes the worker's resource books from first
// principles and returns the signed error of each cached aggregate:
// cpuInUse vs the sum of running calls' rates, workMem vs their working
// sets, codeMB vs the resident code entries, idleCodeMB vs the idle ones.
// All four are ~0 (modulo float rounding) when release accounting is
// correct — the utilization numbers the paper's headline claim rests on
// are derived from these aggregates.
func (w *Worker) AccountingDrift() (cpu, mem, code, idle float64) {
	var sumCPU, sumMem, sumCode, sumIdle float64
	for _, rc := range w.running {
		sumCPU += rc.cpuRate
		sumMem += rc.memMB
	}
	for _, e := range w.code {
		sumCode += e.mb
		if e.active == 0 {
			sumIdle += e.mb
		}
	}
	return w.cpuInUse - sumCPU, w.workMem - sumMem, w.codeMB - sumCode, w.idleCodeMB - sumIdle
}

// DistinctFuncsSince counts distinct functions executed at or after since
// (paper Figure 9 measures this over one-hour windows).
func (w *Worker) DistinctFuncsSince(since sim.Time) int {
	n := 0
	for _, at := range w.seen {
		if at >= since {
			n++
		}
	}
	return n
}

func (w *Worker) codeFootprint(spec *function.Spec) float64 {
	mb := spec.Resources.CodeMB + spec.Resources.JITCodeMB
	if mb <= 0 {
		mb = 8 // a small default footprint
	}
	return mb
}

// CanAccept reports whether the worker could start the call right now
// without exceeding its thread, CPU, or memory budgets.
func (w *Worker) CanAccept(c *function.Call) bool {
	if w.failed {
		return false
	}
	if _, dup := w.running[c.ID]; dup {
		// This invocation is already executing here: an at-least-once
		// redelivery racing its own orphaned pre-crash execution. One
		// worker holds one context per request ID, so the duplicate must
		// land elsewhere (or wait out the original).
		return false
	}
	if len(w.running) >= w.params.MaxConcurrency {
		return false
	}
	_, rate := w.callShape(c)
	if w.cpuInUse+rate > w.params.CPUMIPS {
		return false
	}
	needCode := 0.0
	own, loaded := w.code[c.Spec.Name]
	if !loaded {
		needCode = w.codeFootprint(c.Spec)
	}
	needed := w.MemUsedMB() + needCode + c.MemMB
	if needed > w.params.MemoryMB {
		// Try to make room by evicting idle code other than the call's
		// own; only a projection here.
		reclaimable := w.idleCodeMB
		if loaded && own.active == 0 {
			reclaimable -= own.mb
		}
		if needed-reclaimable > w.params.MemoryMB {
			return false
		}
	}
	return true
}

// callShape returns the call's effective duration (seconds, before JIT
// slowdown) and CPU rate on this worker: the drawn execution time,
// stretched when the CPU work cannot fit a single thread's speed.
func (w *Worker) callShape(c *function.Call) (secs, rate float64) {
	secs = c.ExecSecs
	if secs <= 0 {
		secs = 0.001
	}
	core := w.params.CoreMIPS
	if core <= 0 || core > w.params.CPUMIPS {
		core = w.params.CPUMIPS
	}
	if cpuSecs := c.CPUWorkM / core; cpuSecs > secs {
		secs = cpuSecs // CPU-bound: limited by core speed
	}
	return secs, c.CPUWorkM / secs
}

// TryExecute starts the call, invoking done(c, err) at completion. It
// reports false (and does not run done) when the worker must reject.
func (w *Worker) TryExecute(c *function.Call, done DoneFunc) bool {
	if !w.CanAccept(c) {
		w.Rejections.Inc()
		return false
	}
	now := w.engine.Now()
	entry := w.loadCode(c.Spec, now)
	w.seen[c.Spec.Name] = now
	if entry.active == 0 {
		w.idleCodeMB -= entry.mb
	}
	entry.active++
	entry.lastUsed = now

	speed := w.Runtime.SpeedFactor(c.Spec.Name, now)
	if speed > 1 {
		w.ColdExecutions.Inc()
	}
	baseSecs, rate := w.callShape(c)
	duration := time.Duration(baseSecs * speed * w.slowdown * float64(time.Second))
	duration = max(duration, time.Millisecond)

	// Downstream interaction happens during execution; resolve the
	// outcome now, deterministically per call.
	maxRetries := downstreamRetries
	if w.DeadlineRetryCut {
		if rem := c.Remaining(now); rem >= 0 && rem < duration {
			maxRetries = 0 // doomed: no deadline budget left for retries
		}
	}
	retries, err := w.callDownstream(c, maxRetries)
	if retries > 0 {
		w.Obs.Emit(c, trace.KindDownstreamRetry, int64(retries))
	}
	if err != nil {
		short := time.Duration(float64(duration) * w.params.FailureSlowdown)
		short = max(short, time.Millisecond)
		duration = short
	}

	rc := w.getRC()
	rc.call = c
	rc.cpuRate = rate
	rc.memMB = c.MemMB
	rc.done = done
	rc.err = err
	rc.duration = duration
	w.running[c.ID] = rc
	w.cpuInUse += rate
	w.workMem += c.MemMB

	c.State = function.StateRunning
	c.ExecStartAt = now
	w.Acct.ExecStart(now, c.Criticality(), rate)
	w.Obs.Emit(c, trace.KindExecStart, 0)
	rc.timer = w.engine.Schedule(duration, rc.fire)
	return true
}

// getRC recycles a runningCall, building its completion closure exactly
// once per object lifetime.
func (w *Worker) getRC() *runningCall {
	if n := len(w.freeRC); n > 0 {
		rc := w.freeRC[n-1]
		w.freeRC[n-1] = nil
		w.freeRC = w.freeRC[:n-1]
		return rc
	}
	rc := &runningCall{}
	rc.fire = func() { w.finish(rc) }
	return rc
}

// putRC returns a settled runningCall to the pool. The caller must have
// stopped (or observed the firing of) rc.timer first.
func (w *Worker) putRC(rc *runningCall) {
	rc.call = nil
	rc.done = nil
	rc.err = nil
	rc.timer = sim.Timer{}
	w.freeRC = append(w.freeRC, rc)
}

// Fail kills the worker: every in-flight call's completion callback
// receives ErrWorkerFailed (the load balancer observing the connection
// drop), resident state is lost, and the worker accepts no further work
// until Recover.
func (w *Worker) Fail() { w.fail(true) }

// FailSilent kills the worker without delivering any completion
// callbacks: in-flight calls simply never finish, as when a machine
// wedges or loses power with no connection reset reaching the caller.
// Only heartbeat-based detection can discover a silent failure.
func (w *Worker) FailSilent() { w.fail(false) }

func (w *Worker) fail(notify bool) {
	if w.failed {
		return
	}
	w.failed = true
	w.slowdown = 1
	// Tear resident state down before invoking completion callbacks: a
	// callback may re-enter Recover/TryExecute, and the accounting of any
	// call it starts must not be wiped by a teardown running after it.
	victims := w.running
	w.running = make(map[uint64]*runningCall)
	w.cpuInUse = 0
	w.workMem = 0
	w.codeMB, w.idleCodeMB = 0, 0
	w.code = make(map[string]*codeEntry)
	w.Runtime = jit.NewRuntime()
	// Deterministic order for callback side effects.
	ids := make([]uint64, 0, len(victims))
	for id := range victims {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	now := w.engine.Now()
	for _, id := range ids {
		rc := victims[id]
		rc.timer.Stop()
		w.Failures.Inc()
		c, done := rc.call, rc.done
		w.Acct.ExecEnd(now, c.Criticality(), rc.cpuRate)
		w.Acct.Waste(c.Spec.Team, rc.cpuRate, now-c.ExecStartAt)
		w.putRC(rc)
		if notify {
			done(c, ErrWorkerFailed)
		}
	}
}

// Failed reports whether the worker is down.
func (w *Worker) Failed() bool { return w.failed }

// Recover brings a failed worker back with a cold runtime (code reloads
// from SSD on demand; JIT state restarts per the cooperative-JIT model)
// and nominal speed.
func (w *Worker) Recover() {
	w.failed = false
	w.slowdown = 1
}

// SetSlowdown degrades (factor > 1) or restores (factor = 1) the worker's
// execution speed: a gray failure where the machine still answers but
// runs everything factor times slower. Factors below 1 clamp to 1.
func (w *Worker) SetSlowdown(factor float64) {
	factor = max(factor, 1)
	w.slowdown = factor
}

// Probe answers a health check. ok is false when the worker is down
// (loudly or silently); otherwise the returned slowdown factor is the
// prober's proxy for response latency, exposing gray degradation.
func (w *Worker) Probe() (ok bool, slowdown float64) {
	if w.failed {
		return false, 0
	}
	return true, w.slowdown
}

// Cancel aborts the in-flight execution of call id without invoking its
// completion callback: the losing side of a hedged dispatch. All resource
// accounting unwinds as in finish, but the call object is left untouched
// (no ExecEndAt stamp, no state change — the winning copy owns those
// fields). It reports whether an execution was actually cancelled.
func (w *Worker) Cancel(id uint64) bool {
	rc, ok := w.running[id]
	if !ok {
		return false
	}
	now := w.engine.Now()
	rc.timer.Stop()
	c := rc.call
	delete(w.running, id)
	w.cpuInUse -= rc.cpuRate
	w.workMem -= rc.memMB
	w.releaseCode(c.Spec.Name, now)
	w.Cancelled.Inc()
	w.Acct.ExecEnd(now, c.Criticality(), rc.cpuRate)
	// The partial execution's core-seconds are wasted work: the winner
	// redid (or finished) it elsewhere.
	w.Acct.Waste(c.Spec.Team, rc.cpuRate, now-c.ExecStartAt)
	w.putRC(rc)
	return true
}

func (w *Worker) finish(rc *runningCall) {
	now := w.engine.Now()
	c, err, done := rc.call, rc.err, rc.done
	delete(w.running, c.ID)
	w.cpuInUse -= rc.cpuRate
	w.workMem -= rc.memMB
	w.releaseCode(c.Spec.Name, now)
	c.ExecEndAt = now
	w.Executions.Inc()
	w.Acct.ExecEnd(now, c.Criticality(), rc.cpuRate)
	if err != nil {
		w.Failures.Inc()
		// The attempt's core-seconds are wasted: the work must be redone.
		w.Acct.Waste(c.Spec.Team, rc.cpuRate, rc.duration)
		w.Obs.Emit(c, trace.KindExecEnd, 1)
	} else {
		w.Obs.Emit(c, trace.KindExecEnd, 0)
	}
	// Recycle before invoking the callback: done may re-enter TryExecute
	// and reuse this object immediately.
	w.putRC(rc)
	done(c, err)
}

// releaseCode ends one execution's hold on the function's resident code.
func (w *Worker) releaseCode(fn string, now sim.Time) {
	if e := w.code[fn]; e != nil {
		e.active--
		e.lastUsed = now
		if e.active == 0 {
			w.idleCodeMB += e.mb
		}
	}
}

// callDownstream performs the invocation's downstream sub-call with up
// to maxRetries retries, returning how many retries (extra attempts
// beyond the first) were consumed and the final error. Back-pressure
// fails the invocation immediately (no retry — the exception is the
// signal); plain failures retry, amplifying load on the struggling
// service.
func (w *Worker) callDownstream(c *function.Call, maxRetries int) (int, error) {
	name := c.Spec.Downstream
	if name == "" || w.downstreams == nil {
		return 0, nil
	}
	svc, ok := w.downstreams.Get(name)
	if !ok {
		return 0, nil
	}
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		err = svc.Invoke()
		if err == nil {
			return attempt, nil
		}
		if errors.Is(err, downstream.ErrBackpressure) {
			w.Backpressured.Inc()
			return attempt, err
		}
	}
	return maxRetries, err
}

// loadCode ensures the function's code and JIT cache are resident,
// evicting least-recently-used idle entries under memory pressure, and
// returns the resident entry. Code always loads from local SSD
// (pre-pushed), so there is no cold start — only a memory accounting
// effect.
func (w *Worker) loadCode(spec *function.Spec, now sim.Time) *codeEntry {
	if e, ok := w.code[spec.Name]; ok {
		return e
	}
	mb := w.codeFootprint(spec)
	for w.MemUsedMB()+mb > w.params.MemoryMB {
		// LRU victim; equal ages tie-break on name so eviction order never
		// depends on map iteration order (the determinism contract).
		victim := ""
		var oldest sim.Time
		for fn, e := range w.code {
			if e.active > 0 {
				continue
			}
			if victim == "" || e.lastUsed < oldest || (e.lastUsed == oldest && fn < victim) {
				victim, oldest = fn, e.lastUsed
			}
		}
		if victim == "" {
			break // nothing evictable; admission already checked headroom
		}
		w.codeMB -= w.code[victim].mb
		w.idleCodeMB -= w.code[victim].mb
		delete(w.code, victim)
		w.CodeEvictions.Inc()
	}
	e := &codeEntry{mb: mb, lastUsed: now}
	w.code[spec.Name] = e
	w.codeMB += mb
	w.idleCodeMB += mb
	return e
}

// SwitchVersion implements jit.Target so the code-push distributor can
// roll new code to this worker.
func (w *Worker) SwitchVersion(seeded bool, hot []string) {
	w.Runtime.SwitchVersion(w.engine.Now(), seeded, hot)
}
