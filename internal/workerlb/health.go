package workerlb

import (
	"time"

	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

// HealthState is the LB's detected view of one worker. Detection always
// lags reality: a worker is Dead or Gray only after enough probes said so.
type HealthState int

const (
	// Healthy workers receive traffic normally.
	Healthy HealthState = iota
	// Gray workers answer probes but run degraded; the LB routes around
	// them.
	Gray
	// Dead workers missed enough consecutive heartbeats; the LB stops
	// dispatching to them and notifies OnWorkerDown subscribers so
	// schedulers can evacuate leases.
	Dead
)

var healthNames = [...]string{"healthy", "gray", "dead"}

func (s HealthState) String() string {
	if s >= 0 && int(s) < len(healthNames) {
		return healthNames[s]
	}
	return "unknown"
}

// The heartbeat prober's cadence and thresholds, exported for the
// experiments that size their observation windows from them.
const (
	// HeartbeatInterval is the worker health-probe cadence.
	HeartbeatInterval time.Duration = 5 * time.Second
	// MissedThreshold is the number of consecutive missed heartbeats after
	// which a worker is declared dead.
	MissedThreshold int = 3
	// DetectionLag is the worst-case time between a worker dying and its
	// detected-dead transition.
	DetectionLag time.Duration = HeartbeatInterval * time.Duration(MissedThreshold)
	// GraySlowdownThreshold is the probe-response slowdown factor (1 =
	// nominal speed) at or above which a probe counts as "slow".
	GraySlowdownThreshold float64 = 4
	// GrayThreshold is the number of consecutive slow probes after which a
	// worker is declared gray (alive but degraded) and routed around.
	GrayThreshold int = 3
)

type workerHealth struct {
	state      HealthState
	missed     int
	slowStreak int
	// lastFlip is when the prober last flipped this worker between
	// Healthy and Gray. With outlier detection on, probe-driven
	// Gray↔Healthy transitions are rate-limited to one per probation
	// window — the hysteresis that stops a worker flapping at the
	// threshold from oscillating routing.
	lastFlip sim.Time
}

// StartHealthChecks begins probing every worker each HeartbeatInterval.
// Before the first probe all workers are presumed healthy; each transition
// to Dead invokes the OnWorkerDown subscribers with the worker, in pool
// order.
func (lb *LB) StartHealthChecks(engine *sim.Engine) {
	lb.engine = engine
	lb.health = make([]workerHealth, len(lb.workers))
	engine.Every(HeartbeatInterval, lb.probeAll)
}

// OnWorkerDown registers fn to run when a worker transitions to detected
// Dead. Schedulers subscribe to evacuate the leases of calls they have in
// flight on that worker.
func (lb *LB) OnWorkerDown(fn func(*worker.Worker)) {
	lb.onDown = append(lb.onDown, fn)
}

func (lb *LB) probeAll() {
	for i, w := range lb.workers {
		h := &lb.health[i]
		ok, slowdown := w.Probe()
		if !ok {
			h.missed++
			h.slowStreak = 0
			if h.missed >= MissedThreshold && h.state != Dead {
				h.state = Dead
				lb.DetectedDead.Inc()
				lb.Obs.Control("health.dead", w.ID.String())
				for _, fn := range lb.onDown {
					fn(w)
				}
			}
			continue
		}
		h.missed = 0
		if h.state == Dead {
			h.state = Healthy
			lb.DetectedRecovered.Inc()
			lb.Obs.Control("health.recovered", w.ID.String())
		}
		if slowdown >= GraySlowdownThreshold {
			h.slowStreak++
			if h.slowStreak >= GrayThreshold && h.state == Healthy && lb.flipAllowed(h) {
				h.state = Gray
				h.lastFlip = lb.engine.Now()
				lb.DetectedGray.Inc()
				lb.Obs.Control("health.gray", w.ID.String())
			}
		} else {
			h.slowStreak = 0
			if h.state == Gray && lb.flipAllowed(h) {
				h.state = Healthy
				h.lastFlip = lb.engine.Now()
				lb.DetectedRecovered.Inc()
				lb.Obs.Control("health.recovered", w.ID.String())
			}
		}
		lb.observeProbe(i, slowdown)
	}
}

// flipAllowed rate-limits probe-driven Healthy↔Gray flips to one per
// probation window when outlier detection (and with it hysteresis) is
// configured. Without detection v2 the legacy behavior — immediate flips
// — is preserved exactly.
func (lb *LB) flipAllowed(h *workerHealth) bool {
	if lb.outliers == nil {
		return true
	}
	return h.lastFlip == 0 || lb.engine.Now()-h.lastFlip >= lb.probation
}

// StateOf returns the detected health of a pool worker. Without health
// checks configured, detection degenerates to direct observation: a
// failed worker reads as Dead immediately (zero detection lag). A worker
// the outlier scorer has ejected reads as Gray on top of either view, so
// choose/Usable route around it with no extra logic.
func (lb *LB) StateOf(w *worker.Worker) HealthState {
	i, ok := lb.slot(w)
	if lb.health == nil && w.Failed() {
		return Dead
	}
	if lb.health != nil && ok && lb.health[i].state != Healthy {
		return lb.health[i].state
	}
	if ok && lb.outliers != nil && lb.outliers[i].state == outlierEjected {
		return Gray
	}
	return Healthy
}

// slot returns w's index into the per-worker slices: its ID.Index, which
// New checks equals its position. Another pool's worker misses.
func (lb *LB) slot(w *worker.Worker) (int, bool) {
	i := w.ID.Index
	return i, i >= 0 && i < len(lb.workers) && lb.workers[i] == w
}

// DetectedHealthy counts workers currently believed healthy (not Dead,
// not Gray, not ejected). Schedulers gate polling on this — never on
// Worker.Failed — so every failure reaction flows through the detection
// protocol and its configured lag.
func (lb *LB) DetectedHealthy() int {
	if lb.health == nil && lb.outliers == nil {
		return lb.Alive()
	}
	n := 0
	for _, w := range lb.workers {
		if lb.StateOf(w) == Healthy {
			n++
		}
	}
	return n
}

// DetectedDown counts workers currently marked Dead.
func (lb *LB) DetectedDown() int {
	if lb.health == nil {
		return len(lb.workers) - lb.Alive()
	}
	n := 0
	for i := range lb.health {
		if lb.health[i].state == Dead {
			n++
		}
	}
	return n
}
