package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(-5*time.Second, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(2*time.Second, func() { fired = true })
	e.Schedule(time.Second, func() { tm.Stop() })
	e.Run()
	if fired {
		t.Fatal("timer stopped mid-run still fired")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Minute, func() { count++ })
	e.RunUntil(10 * time.Minute)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if e.Now() != 10*time.Minute {
		t.Fatalf("Now = %v, want 10m", e.Now())
	}
	// Events beyond the deadline remain pending.
	if e.Pending() == 0 {
		t.Fatal("ticker should still be pending")
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Hour)
	e.RunFor(time.Hour)
	if e.Now() != 2*time.Hour {
		t.Fatalf("Now = %v, want 2h", e.Now())
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, recur)
		}
	}
	e.Schedule(0, recur)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Processed() != 100 {
		t.Fatalf("processed = %d, want 100", e.Processed())
	}
}

// Property: events always fire in non-decreasing time order regardless of
// the scheduling pattern.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAtClampsPast(t *testing.T) {
	e := NewEngine()
	e.RunFor(time.Hour)
	fired := Time(0)
	e.At(time.Minute, func() { fired = e.Now() })
	e.Run()
	if fired != time.Hour {
		t.Fatalf("past event fired at %v, want clamped to 1h", fired)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func TestEveryPanicsOnNonPositiveInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) should panic")
		}
	}()
	NewEngine().Every(0, func() {})
}

func TestAtPanicsOnNilFn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) should panic")
		}
	}()
	NewEngine().At(time.Second, nil)
}

func TestPendingAndProcessedCounts(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || e.Processed() != 2 {
		t.Fatalf("pending=%d processed=%d", e.Pending(), e.Processed())
	}
}

func TestTimerWhen(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(90*time.Second, func() {})
	if tm.When() != 90*time.Second {
		t.Fatalf("When = %v", tm.When())
	}
}

// testRand is a tiny deterministic PRNG (SplitMix64) so the property
// tests below are reproducible without importing the rng package into
// the engine's own tests.
type testRand uint64

func (r *testRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func TestTimerStopInsideOwnCallback(t *testing.T) {
	e := NewEngine()
	fired := 0
	var tm Timer
	tm = e.Schedule(time.Second, func() {
		fired++
		if tm.Stop() {
			t.Error("Stop inside own callback claimed to cancel a pending fire")
		}
	})
	e.RunFor(time.Minute)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

// TestPropertyTimersNeverFireStale schedules many timers at random
// delays, stops a random subset at random times (including stops at the
// exact fire instant), and verifies the stop contract: a timer fires at
// most once, never after a Stop that reported cancellation, and every
// un-stopped timer fires exactly once at its scheduled time.
func TestPropertyTimersNeverFireStale(t *testing.T) {
	for seed := 1; seed <= 5; seed++ {
		r := testRand(seed)
		e := NewEngine()
		const n = 300
		type tracked struct {
			timer     Timer
			fired     int
			firedAt   Time
			cancelled bool // Stop() returned true before the fire time
		}
		timers := make([]*tracked, n)
		for i := 0; i < n; i++ {
			tr := &tracked{}
			delay := time.Duration(r.intn(1000)) * time.Millisecond
			tr.timer = e.Schedule(delay, func() { tr.fired++; tr.firedAt = e.Now() })
			timers[i] = tr
		}
		// Half the timers get a stop attempt at a random time, racing the
		// fire instant through the same event queue.
		for i := 0; i < n; i += 2 {
			tr := timers[i]
			stopAt := time.Duration(r.intn(1000)) * time.Millisecond
			e.Schedule(stopAt, func() {
				if tr.timer.Stop() {
					tr.cancelled = true
				}
			})
		}
		e.Run()
		for i, tr := range timers {
			if tr.fired > 1 {
				t.Fatalf("seed %d timer %d fired %d times", seed, i, tr.fired)
			}
			if tr.cancelled && tr.fired != 0 {
				t.Fatalf("seed %d timer %d fired after a successful Stop", seed, i)
			}
			if !tr.cancelled && tr.fired != 1 {
				t.Fatalf("seed %d timer %d never fired and was never cancelled", seed, i)
			}
			if tr.fired == 1 && tr.firedAt != tr.timer.When() {
				t.Fatalf("seed %d timer %d fired at %v, scheduled %v", seed, i, tr.firedAt, tr.timer.When())
			}
		}
	}
}

// TestPropertyTickerStopIsFinal runs tickers at random intervals, stops
// each at a random time, and verifies no tick ever lands after the stop
// — including the same-instant race where the stop event and a tick are
// scheduled for the same virtual timestamp.
func TestPropertyTickerStopIsFinal(t *testing.T) {
	for seed := 1; seed <= 5; seed++ {
		r := testRand(seed * 97)
		e := NewEngine()
		const n = 50
		type tracked struct {
			ticks       int
			ticksAtStop int
			stopped     bool
		}
		tickers := make([]*tracked, n)
		for i := 0; i < n; i++ {
			tr := &tracked{}
			tickers[i] = tr
			interval := time.Duration(1+r.intn(50)) * time.Millisecond
			tk := e.Every(interval, func() { tr.ticks++ })
			// Stop at a random multiple of the interval half the time, so
			// stop events frequently collide with tick instants.
			var stopAt time.Duration
			if i%2 == 0 {
				stopAt = time.Duration(1+r.intn(20)) * interval
			} else {
				stopAt = time.Duration(r.intn(1000)) * time.Millisecond
			}
			e.At(stopAt, func() {
				tk.Stop()
				tr.stopped = true
				tr.ticksAtStop = tr.ticks
			})
		}
		e.RunFor(2 * time.Second)
		for i, tr := range tickers {
			if !tr.stopped {
				t.Fatalf("seed %d ticker %d never stopped", seed, i)
			}
			if tr.ticks != tr.ticksAtStop {
				t.Fatalf("seed %d ticker %d ticked %d times after Stop", seed, i, tr.ticks-tr.ticksAtStop)
			}
		}
	}
}

// TestTickerStopSameInstantAsTick pins the deterministic tie-break: a
// stop event scheduled for the exact instant of the next tick, but
// enqueued earlier, wins — the tick must not fire.
func TestTickerStopSameInstantAsTick(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tk *Ticker
	// The stop event is scheduled first, so at t=30ms it fires before the
	// colliding third tick (same-instant FIFO).
	stopAt := 30 * time.Millisecond
	e.At(stopAt, func() { tk.Stop() })
	tk = e.Every(10*time.Millisecond, func() { ticks++ })
	e.RunFor(time.Second)
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2 (stop wins the same-instant race)", ticks)
	}
}
