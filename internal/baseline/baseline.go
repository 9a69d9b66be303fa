// Package baseline implements the conventional FaaS worker model the
// paper positions XFaaS against: each function runs in dedicated
// containers that pay a cold start (steps 1-7 of the paper's Figure 1)
// on first use, are kept alive for an idle timeout hoping for reuse
// (step 9; Wang et al. [45] measured 10+ minutes across public clouds),
// and hold memory the whole time. The baseline experiment runs the same
// workload on this model and on XFaaS with identical hardware to
// reproduce the paper's headline claim: approximating a universal worker
// is what makes 66% utilization possible.
package baseline

import (
	"slices"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// Params configure the conventional platform.
type Params struct {
	// Hosts and per-host capacity (mirror the XFaaS worker shape).
	Hosts        int
	HostMemoryMB float64
	CoreMIPS     float64
}

const (
	// ColdStart is the container initialization time (Figure 1 steps
	// 1-7: container start, runtime init, code download/load).
	ColdStart time.Duration = 8 * time.Second
	// idleTimeout keeps a finished container warm for reuse.
	idleTimeout time.Duration = 10 * time.Minute
	// containerOverheadMB is resident memory per container beyond the
	// function's working set (runtime copy per container — the paper's
	// §4.5 motivation for sharing one runtime process).
	containerOverheadMB float64 = 256
)

// DefaultParams mirror the public-cloud numbers the paper cites.
func DefaultParams() Params {
	return Params{
		Hosts:        10,
		HostMemoryMB: 64 * 1024,
		CoreMIPS:     150,
	}
}

type container struct {
	fn        string
	host      *host
	memMB     float64
	idleTimer sim.Timer
}

type host struct {
	memUsed float64
}

type pending struct {
	call     *function.Call
	enqueued sim.Time
}

// Platform is the conventional FaaS platform.
type Platform struct {
	engine *sim.Engine
	params Params
	hosts  []*host
	// warm idle containers per function.
	idle map[string][]*container
	// queues of waiting calls per function.
	queue   map[string][]pending
	nameSeq []string

	ColdStarts stats.Counter
	WarmStarts stats.Counter
	// perFnCold / perFnTotal track cold-start shares per function.
	perFnCold    map[string]float64
	perFnTotal   map[string]float64
	Completed    stats.Counter
	StartLatency *stats.Histogram // submit → execution start
}

// New returns a running conventional platform.
func New(engine *sim.Engine, params Params) *Platform {
	p := &Platform{
		engine:       engine,
		params:       params,
		idle:         make(map[string][]*container),
		queue:        make(map[string][]pending),
		perFnCold:    make(map[string]float64),
		perFnTotal:   make(map[string]float64),
		StartLatency: stats.NewHistogram(),
	}
	for i := 0; i < params.Hosts; i++ {
		p.hosts = append(p.hosts, &host{})
	}
	return p
}

// Submit offers one call; it runs on a warm container when available,
// otherwise a new container cold-starts, otherwise it queues.
func (p *Platform) Submit(c *function.Call) {
	c.SubmitTime = p.engine.Now()
	p.dispatch(pending{call: c, enqueued: p.engine.Now()})
}

func (p *Platform) dispatch(pd pending) {
	c := pd.call
	fn := c.Spec.Name
	// Reuse a warm container.
	if list := p.idle[fn]; len(list) > 0 {
		ct := list[len(list)-1]
		p.idle[fn] = list[:len(list)-1]
		ct.idleTimer.Stop()
		p.WarmStarts.Inc()
		p.perFnTotal[fn]++
		p.run(ct, pd)
		return
	}
	// Cold start a new container on a host with room.
	memNeed := containerOverheadMB + c.MemMB
	if h := p.pickHost(memNeed); h != nil {
		ct := &container{fn: fn, host: h, memMB: memNeed}
		h.memUsed += memNeed
		p.ColdStarts.Inc()
		p.perFnCold[fn]++
		p.perFnTotal[fn]++
		p.engine.Schedule(ColdStart, func() { p.run(ct, pd) })
		return
	}
	// Queue until capacity frees up.
	if _, ok := p.queue[fn]; !ok {
		p.nameSeq = append(p.nameSeq, fn)
	}
	p.queue[fn] = append(p.queue[fn], pd)
}

func (p *Platform) pickHost(memNeed float64) *host {
	var best *host
	for _, h := range p.hosts {
		if h.memUsed+memNeed > p.params.HostMemoryMB {
			continue
		}
		if best == nil || h.memUsed < best.memUsed {
			best = h
		}
	}
	return best
}

func (p *Platform) run(ct *container, pd pending) {
	c := pd.call
	p.StartLatency.Observe((p.engine.Now() - pd.enqueued).Seconds())
	secs := c.ExecSecs
	core := p.params.CoreMIPS
	if core > 0 && c.CPUWorkM/core > secs {
		secs = c.CPUWorkM / core
	}
	c.ExecStartAt = p.engine.Now()
	p.engine.Schedule(time.Duration(secs*float64(time.Second)), func() {
		c.ExecEndAt = p.engine.Now()
		p.Completed.Inc()
		p.finish(ct)
	})
}

// finish parks the container warm-idle (or hands it straight to a queued
// call for the same function).
func (p *Platform) finish(ct *container) {
	fn := ct.fn
	if q := p.queue[fn]; len(q) > 0 {
		pd := q[0]
		p.queue[fn] = q[1:]
		p.WarmStarts.Inc()
		p.perFnTotal[fn]++
		p.run(ct, pd)
		return
	}
	p.idle[fn] = append(p.idle[fn], ct)
	ct.idleTimer = p.engine.Schedule(idleTimeout, func() { p.reap(ct) })
	// Freed capacity may admit queued calls of other functions (they
	// need fresh containers).
	p.drainQueues()
}

// reap shuts an idle container down, releasing its memory.
func (p *Platform) reap(ct *container) {
	list := p.idle[ct.fn]
	for i, x := range list {
		if x == ct {
			p.idle[ct.fn] = append(list[:i], list[i+1:]...)
			ct.host.memUsed -= ct.memMB
			p.drainQueues()
			return
		}
	}
}

func (p *Platform) drainQueues() {
	for _, fn := range p.nameSeq {
		q := p.queue[fn]
		for len(q) > 0 {
			memNeed := containerOverheadMB + q[0].call.MemMB
			h := p.pickHost(memNeed)
			if h == nil {
				break
			}
			pd := q[0]
			q = q[1:]
			ct := &container{fn: fn, host: h, memMB: memNeed}
			h.memUsed += memNeed
			p.ColdStarts.Inc()
			p.perFnCold[fn]++
			p.perFnTotal[fn]++
			p.engine.Schedule(ColdStart, func() { p.run(ct, pd) })
		}
		p.queue[fn] = q
	}
}

// IdleMemoryMB returns memory currently held by warm-idle containers,
// summed in function-name order so Go map order never reaches the total.
func (p *Platform) IdleMemoryMB() float64 {
	names := make([]string, 0, len(p.idle))
	for fn := range p.idle {
		names = append(names, fn)
	}
	slices.Sort(names)
	s := 0.0
	for _, fn := range names {
		for _, ct := range p.idle[fn] {
			s += ct.memMB
		}
	}
	return s
}

// MostlyColdFunctions returns the fraction of invoked functions whose
// starts were ≥ half cold — the long tail the paper's §1 quotes ("81% of
// the applications are invoked once per minute or less on average").
func (p *Platform) MostlyColdFunctions() float64 {
	if len(p.perFnTotal) == 0 {
		return 0
	}
	n := 0
	for fn, total := range p.perFnTotal {
		if p.perFnCold[fn] >= total/2 {
			n++
		}
	}
	return float64(n) / float64(len(p.perFnTotal))
}

// ColdStartFraction returns cold starts / (cold + warm).
func (p *Platform) ColdStartFraction() float64 {
	total := p.ColdStarts.Value() + p.WarmStarts.Value()
	if total == 0 {
		return 0
	}
	return p.ColdStarts.Value() / total
}
