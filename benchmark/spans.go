package main

import (
	"bufio"
	"fmt"
	"strconv"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/policy"
	"xfaas/internal/workload"
)

// Span names. The stage spans are children of a tick span, ticks and
// submits are children of the simulated-minute slice that contains them,
// and slices are children of the window.
const (
	spanWindow = iota
	spanSlice
	spanTick
	spanPoll
	spanShed
	spanSchedule
	spanDispatch
	spanSubmit
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"window", "slice", "scheduler.tick", "scheduler.poll", "scheduler.shed",
	"scheduler.schedule", "scheduler.dispatch", "submitter.submit",
}

// span is one harness-owned span; start and end are host nanoseconds
// since the recorder's epoch, parent an index into the span list (-1 for
// the window).
type span struct {
	start, end int64
	parent     int32
	name       uint8
}

// spanRecorder holds the traced pass's spans in memory. It wraps the
// calls into the scheduler (through a policy that replays Push's four
// stages) and into the submitter (through the generator's SubmitFunc);
// the program under test is not instrumented. A nil recorder is the
// timed pass: install and wrapSubmit change nothing.
//
// Spans are recorded only while on is set (the timed window), so warm-up
// costs nothing but the branch.
type spanRecorder struct {
	epoch time.Time
	on    bool
	spans []span
	// total is the summed duration per span name, count the span count.
	total [numSpanNames]int64
	count [numSpanNames]int64
	// slice is the currently open simulated-minute span, the parent of
	// ticks and submits.
	slice    int32
	rejected int64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), slice: -1}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span and returns its index.
func (r *spanRecorder) open(name uint8, parent int32, start int64) int32 {
	r.spans = append(r.spans, span{start: start, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

func (r *spanRecorder) close(i int32, end int64) {
	s := &r.spans[i]
	s.end = end
	r.total[s.name] += end - s.start
	r.count[s.name]++
}

func (r *spanRecorder) leaf(name uint8, parent int32, start, end int64) {
	r.close(r.open(name, parent, start), end)
}

func (r *spanRecorder) seconds(name uint8) float64 { return float64(r.total[name]) / 1e9 }

// install makes every scheduler replica of cfg run the span policy.
func (r *spanRecorder) install(cfg *core.Config) {
	if r == nil {
		return
	}
	cfg.Scheduler.PolicyFactory = func() policy.Policy { return &spanPolicy{rec: r} }
}

// wrapSubmit times every call into the submitter tier.
func (r *spanRecorder) wrapSubmit(submit workload.SubmitFunc) workload.SubmitFunc {
	if r == nil {
		return submit
	}
	return func(region cluster.RegionID, client string, c *function.Call) error {
		if !r.on {
			return submit(region, client, c)
		}
		t0 := r.now()
		err := submit(region, client, c)
		r.leaf(spanSubmit, r.slice, t0, r.now())
		if err != nil {
			r.rejected++
		}
		return err
	}
}

// spanPolicy is policy.Push with a span around each Host call. It embeds
// policy.Base exactly as Push does (so core.New wires the same no-op
// Placer) and draws no randomness, so a seeded run under it is
// byte-identical to Push; the smoke test and every traced pass check that.
type spanPolicy struct {
	policy.Base
	h   policy.Host
	rec *spanRecorder
}

func (p *spanPolicy) Name() string         { return config.PolicyPush }
func (p *spanPolicy) Attach(h policy.Host) { p.h = h }

func (p *spanPolicy) Tick() {
	r := p.rec
	if !r.on {
		p.h.DefaultPoll()
		p.h.DefaultShedSweep()
		p.h.DefaultSchedule()
		p.h.DefaultDispatch()
		return
	}
	t0 := r.now()
	tick := r.open(spanTick, r.slice, t0)
	p.h.DefaultPoll()
	t1 := r.now()
	r.leaf(spanPoll, tick, t0, t1)
	p.h.DefaultShedSweep()
	t2 := r.now()
	r.leaf(spanShed, tick, t1, t2)
	p.h.DefaultSchedule()
	t3 := r.now()
	r.leaf(spanSchedule, tick, t2, t3)
	p.h.DefaultDispatch()
	t4 := r.now()
	r.leaf(spanDispatch, tick, t3, t4)
	r.close(tick, t4)
}

// dump writes the spans as one JSON document: the name table and one
// [name, start_ns, end_ns, parent] row per span.
func (r *spanRecorder) dump(path, workload string) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\"spans\":[\n")
	var buf []byte
	for i, s := range r.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
