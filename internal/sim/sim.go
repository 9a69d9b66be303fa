// Package sim provides a deterministic discrete-event simulation engine.
//
// All XFaaS components in this repository are written as single-threaded
// actors scheduled on an Engine. Virtual time is a time.Duration measured
// from the simulation epoch; nothing in the simulated path reads the wall
// clock, so a run is exactly reproducible from its RNG seed.
//
// The engine is the simulator's hottest path: every call through the
// platform schedules several events (lease timers, execution completions,
// ticker-driven control loops). The event queue is therefore a
// specialized 4-ary heap over pooled timer nodes — no interface boxing,
// no allocation per scheduled event in steady state — and cancelled
// events are removed eagerly so the heap never carries dead entries.
package sim

import (
	"fmt"
	"time"
)

// Time is a point on the virtual timeline, expressed as the elapsed
// duration since the simulation epoch (Time(0)).
type Time = time.Duration

// timerNode is one pooled event record owned by an Engine. Nodes are
// recycled through a free list after they fire or are stopped; the gen
// counter is bumped on every recycle so stale Timer handles (held across
// a fire) can never cancel the node's next occupant.
type timerNode struct {
	e   *Engine
	fn  func()
	at  Time
	seq uint64
	// origin is the partition that assigned seq: the engine's own
	// partition index for local events, the sender's for events delivered
	// across a Group fabric edge. It is the middle term of the
	// deterministic ordering key (at, origin, seq), which makes the heap
	// order independent of *when* a cross-partition message was drained
	// into the heap. Standalone engines always use origin 0.
	origin int32
	index  int32 // heap slot, -1 when not queued
	gen    uint32
	// owned marks an Alarm's node: its owner re-arms it and Step never
	// releases it to the pool.
	owned bool
}

// Timer is a handle to a scheduled event. A Timer may be stopped before
// it fires; stopping an already-fired or already-stopped timer is a
// no-op. The zero Timer is valid and behaves as an already-fired timer.
//
// Timer is a value: it captures the generation of the underlying pooled
// node at scheduling time, so a handle held after its event fired can
// never affect the recycled node's next occupant.
type Timer struct {
	n   *timerNode
	gen uint32
	at  Time
}

// Stop cancels the timer. It reports whether the cancellation prevented
// a pending event from firing; stopping a fired, stopped, or recycled
// timer reports false and has no effect.
func (t Timer) Stop() bool {
	n := t.n
	if n == nil || n.gen != t.gen || n.index < 0 {
		return false
	}
	n.e.remove(n)
	n.e.release(n)
	return true
}

// When returns the virtual time the timer is (or was) scheduled to fire.
func (t Timer) When() Time { return t.at }

// Ticker repeatedly schedules a callback at a fixed virtual interval
// until stopped. It is an Alarm its own callback re-arms, one interval
// ahead with the next sequence number — the key a fresh Schedule would
// get — so a long-lived ticker allocates nothing after creation.
type Ticker struct {
	a        Alarm
	interval time.Duration
	fn       func()
	stopped  bool
}

// Stop cancels all future ticks. Called from inside the callback, it
// keeps the tick that is firing from re-arming.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.a.Stop()
}

func (tk *Ticker) tick() {
	tk.fn()
	if e := tk.a.n.e; !tk.stopped { // fn may stop the ticker
		tk.a.Set(e.now+tk.interval, e.ReserveSeq())
	}
}

// Alarm is one event whose ordering key its owner chooses. A component
// that holds many deadlines but needs only the earliest one scheduled
// reserves a sequence number per deadline (ReserveSeq) at the moment it
// would have called Schedule, keeps the deadlines in its own order, and
// keys the alarm to the earliest (at, seq). The alarm then fires at the
// exact position in the global order the deadline's own timer would have
// had, while the event heap holds one node instead of one per deadline.
// The node belongs to the alarm, so re-keying never touches the pool.
type Alarm struct {
	n timerNode
}

// NewAlarm returns an unarmed alarm that runs fn when it fires. Firing
// disarms it; fn may re-arm it with Set.
func (e *Engine) NewAlarm(fn func()) *Alarm {
	if fn == nil {
		panic("sim: NewAlarm called with nil function")
	}
	return &Alarm{n: timerNode{e: e, fn: fn, index: -1, owned: true}}
}

// Set arms the alarm at the key (at, seq), moving it in place if it is
// already armed. seq must come from ReserveSeq on the alarm's engine and
// at must not lie in the past; the key is used as given.
func (a *Alarm) Set(at Time, seq uint64) {
	n := &a.n
	e := n.e
	if n.index < 0 {
		n.at, n.seq, n.origin = at, seq, e.part
		e.enqueue(n)
		return
	}
	if n.at != at || n.seq != seq {
		n.at, n.seq = at, seq
		e.fix(n)
	}
}

// Stop disarms the alarm; stopping an unarmed alarm is a no-op.
func (a *Alarm) Stop() {
	if a.n.index >= 0 {
		a.n.e.remove(&a.n)
	}
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// call NewEngine.
type Engine struct {
	now   Time
	queue []*timerNode // 4-ary min-heap on (at, origin, seq)
	free  []*timerNode
	seq   uint64
	// processed counts events that have fired, for diagnostics and for
	// runaway-loop protection in tests.
	processed uint64
	// group/part are set when the engine is one partition of a parallel
	// Group (see parallel.go); standalone engines leave both zero.
	group *Group
	part  int32
}

// NewEngine returns an engine positioned at the simulation epoch.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Send schedules fn on partition dst of the engine's Group after delay d
// of virtual time. The delay must be at least the fabric edge's lookahead
// (the modeled lower-bound latency between the partitions) — that bound
// is what lets the destination partition run ahead concurrently. Sending
// to the engine's own partition degenerates to Schedule. Panics on an
// engine outside a Group, on a missing edge, or on a delay below the
// edge's lookahead.
func (e *Engine) Send(dst int, d time.Duration, fn func()) {
	if e.group == nil {
		panic("sim: Send on an engine that is not part of a Group")
	}
	e.group.send(e, dst, d, fn)
}

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule arranges for fn to run after delay d of virtual time. A
// negative delay is treated as zero. Events scheduled for the same
// instant fire in scheduling order.
func (e *Engine) Schedule(d time.Duration, fn func()) Timer {
	d = max(d, 0)
	return e.At(e.now+d, fn)
}

// At arranges for fn to run at absolute virtual time t. Times in the
// past are clamped to the present.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	n := e.get()
	n.fn = fn
	e.push(n, t)
	return Timer{n: n, gen: n.gen, at: n.at}
}

// ReserveSeq consumes the sequence number the next Schedule would have
// been given and returns it without scheduling anything. Together with
// the current time and a delay it is the complete ordering key of the
// event that Schedule would have created; see Alarm.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ReserveSeqs is n calls of ReserveSeq at once: it consumes the next n
// sequence numbers and returns the first.
func (e *Engine) ReserveSeqs(n int) uint64 {
	b := e.seq + 1
	e.seq += uint64(n)
	return b
}

// Every runs fn every interval, with the first invocation one interval
// from now. It panics on a non-positive interval.
func (e *Engine) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive interval %v", interval))
	}
	tk := &Ticker{interval: interval, fn: fn}
	tk.a.n = timerNode{e: e, fn: tk.tick, index: -1, owned: true}
	tk.a.Set(e.now+interval, e.ReserveSeq())
	return tk
}

// Step fires the next scheduled event. It reports whether an event
// fired; false means the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	n := e.queue[0]
	if n.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", n.at, e.now))
	}
	e.remove(n)
	e.now = n.at
	e.processed++
	if n.owned {
		// Alarm-owned: the alarm's owner re-arms it or leaves it unarmed.
		n.fn()
	} else {
		fn := n.fn
		e.release(n)
		fn()
	}
	return true
}

// RunUntil fires events with timestamps ≤ deadline, then advances the
// clock to the deadline (even if no event was scheduled exactly there).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	e.now = max(e.now, deadline)
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// get returns a node from the free list, or a fresh one.
func (e *Engine) get() *timerNode {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return nd
	}
	return &timerNode{e: e, index: -1}
}

// release recycles a node. The generation bump invalidates every handle
// issued for the node's previous occupancy.
func (e *Engine) release(n *timerNode) {
	n.gen++
	n.fn = nil
	n.index = -1
	e.free = append(e.free, n)
}

// push (re)schedules n at absolute time t, clamped to the present, with
// the next sequence number so same-instant events fire in scheduling
// order.
func (e *Engine) push(n *timerNode, t Time) {
	t = max(t, e.now)
	e.seq++
	n.at, n.seq, n.origin = t, e.seq, e.part
	e.enqueue(n)
}

// enqueue adds n, whose key is set, to the heap.
func (e *Engine) enqueue(n *timerNode) {
	n.index = int32(len(e.queue))
	e.queue = append(e.queue, n)
	e.siftUp(int(n.index))
}

// pushForeign inserts an event delivered across a Group fabric edge,
// keyed by the sender's (origin, seq) so the heap order is the same no
// matter which drain round the message arrived in. The arrival time is
// not clamped to the present: an arrival in the local past would be a
// causality violation, and Step's time-went-backwards panic is the
// backstop that surfaces it.
func (e *Engine) pushForeign(at Time, origin int32, seq uint64, fn func()) {
	n := e.get()
	n.fn = fn
	n.at, n.seq, n.origin = at, seq, origin
	e.enqueue(n)
}

// The event queue is a 4-ary min-heap: children of slot i live at
// 4i+1..4i+4. Compared to a binary heap it halves the tree depth, so the
// dominant operation (sift-down on pop) touches fewer cache lines.

// less orders events by (time, origin partition, per-origin sequence):
// same-instant events fire in scheduling order within a partition, and
// ties across partitions break by partition index. For a standalone
// engine every origin is 0, so the order is exactly the historical
// (time, seq) order.
func less(a, b *timerNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.origin != b.origin {
		return a.origin < b.origin
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	n := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(n, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i)
		i = p
	}
	q[i] = n
	n.index = int32(i)
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := q[i]
	sz := len(q)
	for {
		first := 4*i + 1
		if first >= sz {
			break
		}
		best, last := first, min(first+4, sz)
		for c := first + 1; c < last; c++ {
			if less(q[c], q[best]) {
				best = c
			}
		}
		if !less(q[best], n) {
			break
		}
		q[i] = q[best]
		q[i].index = int32(i)
		i = best
	}
	q[i] = n
	n.index = int32(i)
}

// remove unlinks an arbitrary queued node (eager cancellation).
func (e *Engine) remove(n *timerNode) {
	i := int(n.index)
	q := e.queue
	sz := len(q) - 1
	lastNode := q[sz]
	q[sz] = nil
	e.queue = q[:sz]
	n.index = -1
	if i < sz {
		e.queue[i] = lastNode
		lastNode.index = int32(i)
		e.fix(lastNode)
	}
}

// fix restores the heap around a queued node whose key changed, or that
// was moved into another node's slot.
func (e *Engine) fix(n *timerNode) {
	i := int(n.index)
	e.siftDown(i)
	if int(n.index) == i {
		e.siftUp(i)
	}
}
