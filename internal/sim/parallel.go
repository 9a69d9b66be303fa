// Parallel discrete-event simulation: a Group partitions a model across
// several Engines, each running its own event loop on a goroutine,
// synchronized by conservative lookahead (Chandy–Misra–Bryant without
// null messages).
//
// Every fabric edge src→dst carries a lookahead L: a promise that any
// message sent by src arrives at dst no earlier than src's clock + L. In
// this repository the lookahead is the modeled cross-region network
// latency, which every cross-partition interaction already pays. Each
// partition advertises a monotone clock — a lower bound on the arrival
// time of anything it may still send — and may safely process every local
// event strictly below its horizon, the minimum over inbound edges of
// (advertised clock + edge lookahead).
//
// Determinism does not depend on goroutine scheduling: messages carry the
// sender's (origin, seq) key, so once an event is in a partition's heap
// its order against every other event is fixed by (time, origin, seq) —
// regardless of which drain round delivered it. RunUntilSeq executes the
// identical partitioned model on one goroutine in global (time,
// partition) order and produces byte-identical state, which is the
// serial reference the CI determinism gates diff against.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

const maxTime = Time(math.MaxInt64)

// message is one cross-partition event in flight on a fabric edge.
type message struct {
	at  Time
	seq uint64
	fn  func()
}

// edge is a mutex-guarded mailbox for one (src, dst) partition pair.
type edge struct {
	mu   sync.Mutex
	msgs []message
}

// Group runs n partition Engines under conservative-lookahead
// synchronization. Build the model so partitions share no mutable state:
// all cross-partition interaction must flow through Engine.Send.
type Group struct {
	parts []*Engine
	// lookahead[src][dst] is the fabric edge's lower-bound latency; zero
	// means no edge (sends panic).
	lookahead [][]Time
	// edges[dst][src] is the mailbox for src→dst messages (nil when no
	// edge exists).
	edges [][]*edge
	// clocks[i] is partition i's advertised lower bound on the arrival
	// time of any message it may still send.
	clocks []atomic.Int64
	// scratch[dst] is the drain buffer, only touched by dst's goroutine.
	scratch [][]message
}

// NewGroup builds n partitions connected by the given lookahead function:
// lookahead(src, dst) returns the lower-bound latency of messages from
// src to dst, or 0 for no edge. Lookaheads must be positive on every edge
// actually used — a zero-lookahead cycle cannot make progress.
func NewGroup(n int, lookahead func(src, dst int) time.Duration) *Group {
	if n <= 0 {
		panic("sim: NewGroup with no partitions")
	}
	g := &Group{
		parts:     make([]*Engine, n),
		lookahead: make([][]Time, n),
		edges:     make([][]*edge, n),
		clocks:    make([]atomic.Int64, n),
		scratch:   make([][]message, n),
	}
	for i := range g.parts {
		e := NewEngine()
		e.group, e.part = g, int32(i)
		g.parts[i] = e
	}
	for s := 0; s < n; s++ {
		g.lookahead[s] = make([]Time, n)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if la := lookahead(s, d); la > 0 {
				g.lookahead[s][d] = la
			}
		}
	}
	for d := 0; d < n; d++ {
		g.edges[d] = make([]*edge, n)
		for s := 0; s < n; s++ {
			if s != d && g.lookahead[s][d] > 0 {
				g.edges[d][s] = &edge{}
			}
		}
	}
	return g
}

// Part returns partition i's engine.
func (g *Group) Part(i int) *Engine { return g.parts[i] }

// Processed sums events fired across all partitions.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, e := range g.parts {
		n += e.processed
	}
	return n
}

// send enqueues fn for partition dst at src.now + d. Called from inside
// src's event processing (or before the run starts), never concurrently
// for the same src.
func (g *Group) send(src *Engine, dst int, d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Send called with nil function")
	}
	if dst < 0 || dst >= len(g.parts) {
		panic(fmt.Sprintf("sim: Send to unknown partition %d (group has %d)", dst, len(g.parts)))
	}
	s := int(src.part)
	if dst == s {
		src.Schedule(d, fn)
		return
	}
	la := g.lookahead[s][dst]
	if la == 0 {
		panic(fmt.Sprintf("sim: Send on missing fabric edge %d→%d", s, dst))
	}
	if d < la {
		panic(fmt.Sprintf("sim: Send delay %v below edge lookahead %v (%d→%d) — the lookahead is the determinism contract; model at least that much latency", d, la, s, dst))
	}
	m := message{at: src.now + d, seq: src.ReserveSeq(), fn: fn}
	ed := g.edges[dst][s]
	ed.mu.Lock()
	ed.msgs = append(ed.msgs, m)
	ed.mu.Unlock()
	// The message is visible before src's advertised clock can move past
	// src.now (the run loop stores the clock only between events, after
	// this send returns) — that ordering is what makes the horizon a safe
	// bound for the receiver.
}

// drain moves every queued inbound message into partition i's heap,
// keyed by the sender's (origin, seq). Only i's goroutine calls this.
func (g *Group) drain(i int) {
	e := g.parts[i]
	buf := g.scratch[i]
	for s, ed := range g.edges[i] {
		if ed == nil {
			continue
		}
		buf = buf[:0]
		ed.mu.Lock()
		if len(ed.msgs) > 0 {
			buf = append(buf, ed.msgs...)
			ed.msgs = ed.msgs[:0]
		}
		ed.mu.Unlock()
		for _, m := range buf {
			e.pushForeign(m.at, int32(s), m.seq, m.fn)
		}
	}
	g.scratch[i] = buf
}

// inboundEmpty reports whether partition i's mailboxes are all empty.
func (g *Group) inboundEmpty(i int) bool {
	for _, ed := range g.edges[i] {
		if ed == nil {
			continue
		}
		ed.mu.Lock()
		n := len(ed.msgs)
		ed.mu.Unlock()
		if n > 0 {
			return false
		}
	}
	return true
}

// horizon returns the earliest time a not-yet-visible message could reach
// partition i: min over inbound edges of (sender's advertised clock +
// edge lookahead). Events strictly below it are safe to process.
func (g *Group) horizon(i int) Time {
	h := maxTime
	for s, ed := range g.edges[i] {
		if ed == nil {
			continue
		}
		c := Time(g.clocks[s].Load())
		v := c + g.lookahead[s][i]
		if v < c { // overflow
			v = maxTime
		}
		h = min(h, v)
	}
	return h
}

// RunUntil advances every partition to the deadline concurrently, firing
// all events with timestamps ≤ deadline, then sets each partition's clock
// to the deadline. It may be called repeatedly to advance in phases.
func (g *Group) RunUntil(deadline Time) {
	// Seed the advertised clocks serially before any worker can read
	// them: a partition cannot send anything earlier than its own now.
	for i, e := range g.parts {
		g.clocks[i].Store(int64(e.now))
	}
	if len(g.parts) == 1 {
		g.parts[0].RunUntil(deadline)
		return
	}
	var wg sync.WaitGroup
	for i := range g.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.runPart(i, deadline)
		}(i)
	}
	wg.Wait()
}

// advance is one round of partition i's conservative event loop. It (1)
// loads the other partitions' clocks to compute the horizon, (2) drains
// inbound mailboxes — in that order: a message enqueued after the clock
// load can only have an arrival at or past the computed horizon, so
// nothing processable can slip in unseen — and (3) fires local events
// strictly below the horizon. Between events it advertises
// min(next event, horizon), which is a monotone lower bound on anything
// it may still send. It reports whether the round fired an event or moved
// the advertised clock, and whether the partition is done: nothing is
// left at or below the deadline and no inbound edge can deliver anything
// there either.
func (g *Group) advance(i int, deadline Time) (progressed, done bool) {
	e := g.parts[i]
	clock := &g.clocks[i]
	h := g.horizon(i)
	g.drain(i)
	for len(e.queue) > 0 {
		top := e.queue[0]
		if top.at > deadline || top.at >= h {
			break
		}
		clock.Store(int64(top.at))
		e.Step()
		progressed = true
	}
	next := maxTime
	if len(e.queue) > 0 {
		next = e.queue[0].at
	}
	if next > deadline && h > deadline && g.inboundEmpty(i) {
		// Events past the deadline stay queued for a later RunUntil;
		// advertise deadline+1 so the remaining partitions' horizons can
		// clear the deadline.
		e.now = max(e.now, deadline)
		clock.Store(int64(deadline) + 1)
		return true, true
	}
	lb := min(next, h)
	if lb > deadline {
		lb = deadline + 1
	}
	if clock.Load() != int64(lb) {
		clock.Store(int64(lb))
		progressed = true // clock relaxation is progress too
	}
	return progressed, false
}

// runPart runs partition i's event loop on its own goroutine until the
// partition is done.
func (g *Group) runPart(i int, deadline Time) {
	spins := 0
	for {
		progressed, done := g.advance(i, deadline)
		if done {
			return
		}
		if progressed {
			spins = 0
			continue
		}
		// Blocked on another partition's progress. Yield first; back off
		// to a short sleep if the wait persists (wall-clock only — the
		// virtual timeline is unaffected).
		spins++
		if spins < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// RunUntilSeq advances the same partitioned model on a single goroutine:
// the rounds of advance, run cooperatively round-robin instead of on P
// goroutines. Each partition fires its events in the same
// (time, origin, seq) heap order at the same virtual times as in the
// parallel run, and partitions share no state, so the final state is
// byte-identical to RunUntil's — this is the serial reference the CI
// parallel-determinism gates diff against. Doing the same per-event work
// as the parallel loop (no global min-scan) also makes it the honest
// baseline for the parallel speedup measurement.
func (g *Group) RunUntilSeq(deadline Time) {
	for i, e := range g.parts {
		g.clocks[i].Store(int64(e.now))
	}
	done := make([]bool, len(g.parts))
	remaining := len(g.parts)
	for remaining > 0 {
		progressed := false
		for i := range g.parts {
			if done[i] {
				continue
			}
			p, d := g.advance(i, deadline)
			if d {
				done[i] = true
				remaining--
			}
			progressed = progressed || p
		}
		if !progressed {
			// Cannot happen with positive lookaheads: at a clock fixed
			// point with no fireable events every partition must satisfy
			// the completion test above. Guard against silent livelock.
			panic("sim: RunUntilSeq made no progress — zero-lookahead cycle?")
		}
	}
}
