package workerlb

import (
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

// probe abbreviates the heartbeat cadence the timings below count in.
const probe = HeartbeatInterval

func TestDetectDeadAfterMissedThreshold(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 100000)
	lb := New(rng.New(1), workers)
	lb.StartHealthChecks(e)
	var downed []*worker.Worker
	lb.OnWorkerDown(func(w *worker.Worker) { downed = append(downed, w) })

	workers[1].FailSilent()
	// Two missed probes are below the threshold of three.
	e.RunFor(probe * 5 / 2)
	if lb.DetectedHealthy() != 4 || len(downed) != 0 {
		t.Fatalf("detected dead before threshold: healthy=%d downed=%d", lb.DetectedHealthy(), len(downed))
	}
	// The third miss crosses it: detection lag = interval × threshold.
	e.RunFor(probe)
	if lb.DetectedHealthy() != 3 || lb.DetectedDown() != 1 {
		t.Fatalf("after threshold: healthy=%d down=%d", lb.DetectedHealthy(), lb.DetectedDown())
	}
	if got := lb.StateOf(workers[1]); got != Dead {
		t.Fatalf("StateOf = %v, want Dead", got)
	}
	if len(downed) != 1 || downed[0] != workers[1] {
		t.Fatalf("onDown callbacks = %v", downed)
	}
	if lb.DetectedDead.Value() != 1 {
		t.Fatalf("DetectedDead = %v", lb.DetectedDead.Value())
	}
	// A dead worker is detected once, not once per probe.
	e.RunFor(10 * probe)
	if len(downed) != 1 || lb.DetectedDead.Value() != 1 {
		t.Fatalf("repeated detection: downed=%d counter=%v", len(downed), lb.DetectedDead.Value())
	}
}

func TestDetectGrayAndClear(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 100000)
	lb := New(rng.New(1), workers)
	lb.StartHealthChecks(e)

	workers[2].SetSlowdown(8)
	e.RunFor(probe * 5 / 2) // two slow probes < GrayThreshold
	if lb.StateOf(workers[2]) != Healthy {
		t.Fatal("gray before threshold")
	}
	e.RunFor(probe) // third slow probe
	if lb.StateOf(workers[2]) != Gray {
		t.Fatalf("StateOf = %v, want Gray", lb.StateOf(workers[2]))
	}
	if lb.DetectedHealthy() != 3 || lb.DetectedGray.Value() != 1 {
		t.Fatalf("healthy=%d gray=%v", lb.DetectedHealthy(), lb.DetectedGray.Value())
	}
	// A single fast probe clears the gray mark.
	workers[2].SetSlowdown(1)
	e.RunFor(probe)
	if lb.StateOf(workers[2]) != Healthy || lb.DetectedRecovered.Value() != 1 {
		t.Fatalf("gray not cleared: state=%v recovered=%v", lb.StateOf(workers[2]), lb.DetectedRecovered.Value())
	}
}

func TestDeadWorkerRecoveryDetected(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 2, 100000)
	lb := New(rng.New(1), workers)
	lb.StartHealthChecks(e)

	workers[0].FailSilent()
	e.RunFor(4 * probe)
	if lb.StateOf(workers[0]) != Dead {
		t.Fatal("not detected dead")
	}
	workers[0].Recover()
	e.RunFor(probe) // first successful probe flips Dead → Healthy
	if lb.StateOf(workers[0]) != Healthy {
		t.Fatalf("StateOf = %v after recovery", lb.StateOf(workers[0]))
	}
	if lb.DetectedRecovered.Value() != 1 || lb.DetectedHealthy() != 2 {
		t.Fatalf("recovered=%v healthy=%d", lb.DetectedRecovered.Value(), lb.DetectedHealthy())
	}
}

func TestDispatchRoutesAroundDetectedBad(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 4, 100000)
	lb := New(rng.New(3), workers)
	lb.StartHealthChecks(e)

	workers[0].SetSlowdown(8)
	e.RunFor(4 * probe)
	if lb.StateOf(workers[0]) != Gray {
		t.Fatal("setup: worker 0 not gray")
	}
	s := lbSpec("f")
	total := 200
	for i := 0; i < total; i++ {
		lb.Dispatch(lbCall(s), func(*function.Call, error) {})
		e.RunFor(10 * time.Millisecond)
	}
	grayShare := float64(workers[0].Executions.Value()) / float64(total)
	// A fair split would give the gray worker 25%; redraws should push it
	// near zero (it only wins when several consecutive draws all land on
	// it).
	if grayShare > 0.05 {
		t.Fatalf("gray worker served %.0f%% of dispatches", 100*grayShare)
	}
}

func TestStateFallbackWithoutHealthChecks(t *testing.T) {
	e := sim.NewEngine()
	workers := pool(e, 3, 100000)
	lb := New(rng.New(1), workers)
	// No StartHealthChecks: detection degenerates to direct observation.
	workers[1].Fail()
	if lb.StateOf(workers[1]) != Dead {
		t.Fatal("failed worker should read Dead in fallback mode")
	}
	if lb.DetectedHealthy() != 2 || lb.DetectedDown() != 1 {
		t.Fatalf("fallback counts: healthy=%d down=%d", lb.DetectedHealthy(), lb.DetectedDown())
	}
}
