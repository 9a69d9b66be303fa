package sim

import (
	"container/heap"
	"testing"
	"time"
)

// refTimer and refEngine reimplement the engine's original
// container/heap event queue (boxed timers, lazy cancellation). The
// property tests below drive it in lockstep with the specialized 4-ary
// heap and demand identical (time, seq) fire order under randomized
// schedule/stop interleavings — the refactor's determinism contract.

type refTimer struct {
	at      Time
	seq     uint64
	fn      func()
	index   int
	stopped bool
}

func (t *refTimer) Stop() bool {
	if t == nil || t.stopped || t.index < 0 {
		return false
	}
	t.stopped = true
	return true
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	tm := x.(*refTimer)
	tm.index = len(*h)
	*h = append(*h, tm)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}

type refEngine struct {
	now   Time
	queue refHeap
	seq   uint64
}

func (e *refEngine) schedule(d time.Duration, fn func()) *refTimer {
	if d < 0 {
		d = 0
	}
	t := e.now + d
	e.seq++
	tm := &refTimer{at: t, seq: e.seq, fn: fn, index: -1}
	heap.Push(&e.queue, tm)
	return tm
}

func (e *refEngine) run() {
	for len(e.queue) > 0 {
		tm := heap.Pop(&e.queue).(*refTimer)
		if tm.stopped {
			continue
		}
		e.now = tm.at
		tm.fn()
	}
}

// fireEvent records one observed firing for the order-equivalence check.
type fireEvent struct {
	id int
	at Time
}

// TestHeapOrderMatchesContainerHeap drives the specialized 4-ary heap
// and the original container/heap implementation through identical
// randomized schedule/stop interleavings — including stops issued from
// inside callbacks and re-scheduling callbacks — and requires the exact
// same fire sequence from both.
func TestHeapOrderMatchesContainerHeap(t *testing.T) {
	for seed := 1; seed <= 20; seed++ {
		r := testRand(seed * 1013)
		const n = 400

		// Build one shared script: for each timer a delay, an optional
		// stop time, and an optional child event spawned on fire.
		type op struct {
			delay      time.Duration
			stopAt     time.Duration // -1: never stopped
			childDelay time.Duration // -1: no child
		}
		ops := make([]op, n)
		for i := range ops {
			ops[i].delay = time.Duration(r.intn(500)) * time.Millisecond
			ops[i].stopAt = -1
			if r.intn(3) == 0 {
				ops[i].stopAt = time.Duration(r.intn(500)) * time.Millisecond
			}
			ops[i].childDelay = -1
			if r.intn(4) == 0 {
				ops[i].childDelay = time.Duration(r.intn(100)) * time.Millisecond
			}
		}

		var got []fireEvent
		e := NewEngine()
		for i, o := range ops {
			id, o := i, o
			tm := e.Schedule(o.delay, func() {
				got = append(got, fireEvent{id, e.Now()})
				if o.childDelay >= 0 {
					e.Schedule(o.childDelay, func() {
						got = append(got, fireEvent{id + n, e.Now()})
					})
				}
			})
			if o.stopAt >= 0 {
				e.Schedule(o.stopAt, func() { tm.Stop() })
			}
		}
		e.Run()

		var want []fireEvent
		re := &refEngine{}
		for i, o := range ops {
			id, o := i, o
			tm := re.schedule(o.delay, func() {
				want = append(want, fireEvent{id, re.now})
				if o.childDelay >= 0 {
					re.schedule(o.childDelay, func() {
						want = append(want, fireEvent{id + n, re.now})
					})
				}
			})
			if o.stopAt >= 0 {
				re.schedule(o.stopAt, func() { tm.Stop() })
			}
		}
		re.run()

		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestPoolReuseCannotFireStaleCallback proves a recycled timer node can
// never run its previous occupant's callback: after timer A fires, its
// node returns to the pool and is handed to timer B; A's stale handle
// must not cancel B, and B must fire its own callback.
func TestPoolReuseCannotFireStaleCallback(t *testing.T) {
	e := NewEngine()
	aFired, bFired := 0, 0
	a := e.Schedule(time.Second, func() { aFired++ })
	e.RunFor(2 * time.Second) // A fires; its node is recycled.

	b := e.Schedule(time.Second, func() { bFired++ })
	// The pool handed A's node to B.
	if a.n != b.n {
		t.Fatalf("expected node reuse: a.n=%p b.n=%p", a.n, b.n)
	}
	if a.Stop() {
		t.Fatal("Stop on a fired (recycled) timer reported cancellation")
	}
	e.RunFor(2 * time.Second)
	if aFired != 1 || bFired != 1 {
		t.Fatalf("aFired=%d bFired=%d, want 1/1 (stale Stop must not cancel the new occupant)", aFired, bFired)
	}
	// And B's own handle still behaves: stopped after firing = false.
	if b.Stop() {
		t.Fatal("Stop on fired timer reported cancellation")
	}
}

// TestStoppedHandleCannotCancelRecycledNode covers the cancel-then-reuse
// path: a stopped timer's node is recycled immediately; calling Stop
// again through the stale handle must not cancel the node's new owner.
func TestStoppedHandleCannotCancelRecycledNode(t *testing.T) {
	e := NewEngine()
	fired := 0
	a := e.Schedule(time.Second, func() { t.Error("stopped timer fired") })
	if !a.Stop() {
		t.Fatal("first Stop should cancel")
	}
	b := e.Schedule(time.Second, func() { fired++ })
	if a.n != b.n {
		t.Fatalf("expected node reuse after Stop: a.n=%p b.n=%p", a.n, b.n)
	}
	if a.Stop() {
		t.Fatal("second Stop through stale handle reported cancellation")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("new occupant fired %d times, want 1", fired)
	}
}

// TestTickerNodeReuseSafety: a stopped ticker's node is recycled; the
// dead ticker must not tick again even when another event reuses it.
func TestTickerNodeReuseSafety(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.Every(time.Second, func() { ticks++ })
	e.RunFor(3 * time.Second)
	tk.Stop()
	otherFired := 0
	e.Schedule(time.Second, func() { otherFired++ })
	e.RunFor(10 * time.Second)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if otherFired != 1 {
		t.Fatalf("otherFired = %d, want 1", otherFired)
	}
	tk.Stop() // idempotent
}

// TestZeroTimerStop: the zero Timer handle is inert.
func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer.Stop reported cancellation")
	}
	if tm.When() != 0 {
		t.Fatalf("zero Timer.When = %v", tm.When())
	}
}

// TestHeapInvariant checks the 4-ary heap property and index bookkeeping
// after a randomized mix of pushes, pops, and removals.
func TestHeapInvariant(t *testing.T) {
	r := testRand(42)
	e := NewEngine()
	var handles []Timer
	for i := 0; i < 2000; i++ {
		switch r.intn(3) {
		case 0, 1:
			handles = append(handles, e.Schedule(time.Duration(r.intn(10000))*time.Millisecond, func() {}))
		case 2:
			if len(handles) > 0 {
				j := r.intn(len(handles))
				handles[j].Stop()
				handles = append(handles[:j], handles[j+1:]...)
			}
		}
		for k := 1; k < len(e.queue); k++ {
			p := (k - 1) / 4
			if less(e.queue[k], e.queue[p]) {
				t.Fatalf("heap violation at %d after op %d", k, i)
			}
			if int(e.queue[k].index) != k {
				t.Fatalf("index bookkeeping broken at %d", k)
			}
		}
	}
}

// BenchmarkEngineScheduleStop measures the cancel-heavy pattern (lease
// renewal: schedule then stop) — steady state must not allocate.
func BenchmarkEngineScheduleStop(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.Schedule(time.Duration(i%1000)*time.Microsecond, fn)
		tm.Stop()
	}
}

// BenchmarkTicker measures the per-tick cost of a long-lived ticker.
func BenchmarkTicker(b *testing.B) {
	e := NewEngine()
	n := 0
	e.Every(time.Millisecond, func() { n++ })
	b.ReportAllocs()
	b.ResetTimer()
	e.RunFor(time.Duration(b.N) * time.Millisecond)
	if n == 0 {
		b.Fatal("no ticks")
	}
}

// deadlines is a set of numbered deadlines that can be armed, re-armed
// and cancelled; fire reports the ones that run out. The two
// implementations below are the two ways a component can keep such a set
// on an engine, and must be indistinguishable from outside.
type deadlines interface {
	arm(i int, d time.Duration)
	cancel(i int)
}

// timerDeadlines gives every deadline an engine timer of its own.
type timerDeadlines struct {
	e      *Engine
	timers []Timer
	fire   func(int)
}

func (s *timerDeadlines) arm(i int, d time.Duration) {
	s.timers[i].Stop()
	s.timers[i] = s.e.Schedule(d, func() { s.fire(i) })
}

func (s *timerDeadlines) cancel(i int) { s.timers[i].Stop() }

// alarmDeadlines keeps only the key each timer would have had, and one
// Alarm set to the least of them.
type alarmDeadlines struct {
	e     *Engine
	alarm *Alarm
	keys  []alarmKey
	fire  func(int)
}

type alarmKey struct {
	at    Time
	seq   uint64
	armed bool
}

func (s *alarmDeadlines) first() int {
	first := -1
	for i, k := range s.keys {
		if k.armed && (first < 0 || k.at < s.keys[first].at || k.at == s.keys[first].at && k.seq < s.keys[first].seq) {
			first = i
		}
	}
	return first
}

func (s *alarmDeadlines) sync() {
	if i := s.first(); i >= 0 {
		s.alarm.Set(s.keys[i].at, s.keys[i].seq)
	} else {
		s.alarm.Stop()
	}
}

func (s *alarmDeadlines) arm(i int, d time.Duration) {
	s.keys[i] = alarmKey{s.e.Now() + d, s.e.ReserveSeq(), true}
	s.sync()
}

func (s *alarmDeadlines) cancel(i int) {
	s.keys[i].armed = false
	s.sync()
}

func (s *alarmDeadlines) ring() {
	i := s.first()
	s.keys[i].armed = false
	s.sync() // re-keyed from inside its own callback, before fire re-arms more
	s.fire(i)
}

type alarmFire struct {
	id    int
	at    Time
	fired uint64
}

// runDeadlineScript drives one deadlines implementation through a seeded
// script of arms, re-arms, cancels and bystander events — from outside
// the run and from inside firing callbacks, on a coarse time grid so that
// same-instant ties are the rule — and returns everything that fired, in
// order, with the engine's own count of events at each firing.
func runDeadlineScript(seed int, mk func(e *Engine, slots int, fire func(int)) deadlines) (log []alarmFire, maxPending int) {
	const slots = 12
	e := NewEngine()
	r := testRand(seed * 7919)
	delay := func() time.Duration { return time.Duration(r.intn(6)) * 10 * time.Millisecond }
	var set deadlines
	mutate := func() {
		switch r.intn(4) {
		case 0, 1:
			set.arm(r.intn(slots), delay())
		case 2:
			set.cancel(r.intn(slots))
		default:
			id := 1000 + len(log)
			e.Schedule(delay(), func() { log = append(log, alarmFire{id, e.Now(), e.Processed()}) })
		}
		maxPending = max(maxPending, e.Pending())
	}
	set = mk(e, slots, func(i int) {
		log = append(log, alarmFire{i, e.Now(), e.Processed()})
		for k := r.intn(3); k > 0; k-- {
			mutate()
		}
	})
	for step := 0; step < 400; step++ {
		for k := 1 + r.intn(4); k > 0; k-- {
			mutate()
		}
		e.RunFor(time.Duration(r.intn(4)) * 10 * time.Millisecond)
	}
	e.Run()
	log = append(log, alarmFire{-1, e.Now(), e.seq}) // the engines consumed the same sequence numbers
	return log, maxPending
}

// TestAlarmFiresLikeIndividualTimers is the contract DurableQ's lease
// expiry rests on: deadlines kept outside the engine, with one Alarm keyed
// to the earliest (at, reserved seq), fire in exactly the global order —
// against each other, against bystanders, through same-instant ties and
// re-keys made while the alarm is firing — that a timer per deadline
// gives, with the same number of events fired and sequence numbers spent.
func TestAlarmFiresLikeIndividualTimers(t *testing.T) {
	for seed := 1; seed <= 25; seed++ {
		want, deep := runDeadlineScript(seed, func(e *Engine, slots int, fire func(int)) deadlines {
			return &timerDeadlines{e: e, timers: make([]Timer, slots), fire: fire}
		})
		got, shallow := runDeadlineScript(seed, func(e *Engine, slots int, fire func(int)) deadlines {
			s := &alarmDeadlines{e: e, keys: make([]alarmKey, slots), fire: fire}
			s.alarm = e.NewAlarm(s.ring)
			return s
		})
		if len(want) < 500 {
			t.Fatalf("seed %d: only %d events fired; the script is too tame to prove anything", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, a timer per deadline fires %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, a timer per deadline gives %+v", seed, i, got[i], want[i])
			}
		}
		if shallow > deep {
			t.Fatalf("seed %d: the alarm's heap peaked at %d events, the timers' at %d", seed, shallow, deep)
		}
	}
}

// TestAlarmRekeyKeepsHeapInvariant moves one alarm around a populated
// heap — earlier, later, off and back on — checking the 4-ary heap
// property and index bookkeeping after every move.
func TestAlarmRekeyKeepsHeapInvariant(t *testing.T) {
	r := testRand(99)
	e := NewEngine()
	for i := 0; i < 300; i++ {
		e.Schedule(time.Duration(r.intn(10000))*time.Millisecond, func() {})
	}
	a := e.NewAlarm(func() {})
	for i := 0; i < 2000; i++ {
		if r.intn(5) == 0 {
			a.Stop()
		} else {
			a.Set(time.Duration(r.intn(10000))*time.Millisecond, e.ReserveSeq())
		}
		for k := 1; k < len(e.queue); k++ {
			if less(e.queue[k], e.queue[(k-1)/4]) {
				t.Fatalf("heap violation at %d after move %d", k, i)
			}
			if int(e.queue[k].index) != k {
				t.Fatalf("index bookkeeping broken at %d after move %d", k, i)
			}
		}
	}
	a.Stop()
	if e.Pending() != 300 {
		t.Fatalf("%d events pending after stopping the alarm, want the 300 bystanders", e.Pending())
	}
}

// BenchmarkAlarmRekey measures moving an armed alarm to the back of a
// heap 100k deep, the engine's share of a lease renewal at the head.
func BenchmarkAlarmRekey(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 100_000; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	a := e.NewAlarm(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Set(time.Duration(i%1000)*time.Millisecond, e.ReserveSeq())
	}
}
