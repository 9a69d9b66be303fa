package workerlb

import (
	"time"

	"xfaas/internal/sim"
	"xfaas/internal/worker"
)

// Detection v2: latency-outlier scoring from real dispatch completions.
//
// The heartbeat prober only sees what a probe sees — a worker that is slow
// for real work but answers probes promptly (a sick disk, a saturated NIC)
// never trips the probe-slowdown threshold. The outlier scorer instead
// folds every completed execution into a per-worker EWMA of exec-time
// inflation versus the function's fleet-wide baseline, and runs a
// probation → ejected → reinstated state machine: a worker whose score
// crosses the eject threshold enters probation (no routing change); if it
// stays bad a full probation window it is ejected from the dispatch draw
// (it reads as Gray to choose/Usable); once its score recovers below the
// reinstate threshold and another window has elapsed it is reinstated.
// The two thresholds plus the window are the hysteresis that keeps a
// flapping worker from oscillating routing — at most one routing flip per
// probation window, by construction.

const (
	// ejectThreshold is the inflation score at or above which a worker
	// enters probation (and, if it stays there a full probation window,
	// is ejected from routing). 1 means fleet-baseline speed.
	ejectThreshold float64 = 2.0
	// reinstateThreshold is the score at or below which an ejected worker
	// becomes eligible for reinstatement. It sits below ejectThreshold:
	// the gap is the hysteresis band.
	reinstateThreshold float64 = 1.3
)

type outlierState uint8

const (
	outlierTrusted outlierState = iota
	outlierProbation
	outlierEjected
)

type workerOutlier struct {
	state   outlierState
	ewma    float64
	samples int
	// since is when the current state was entered (probation aging and
	// the reinstatement window both measure from it).
	since sim.Time
}

// fleetBaseline is the per-function EWMA of observed exec seconds across
// the whole pool — the denominator of every inflation sample.
type fleetBaseline struct {
	mean    float64
	samples int
}

const baselineAlpha = 0.05

// StartOutlierDetection turns completion scoring on. Safe to call with or
// without StartHealthChecks; the two views compose in StateOf (probe
// detection answers Dead/Gray first, ejection reads as Gray on top).
// probation is the hysteresis window: a routing flip (ejection or
// reinstatement) requires the worker to have held its state this long,
// and the same window rate-limits the probe-driven Gray↔Healthy
// transitions.
func (lb *LB) StartOutlierDetection(engine *sim.Engine, probation time.Duration) {
	lb.engine = engine
	lb.probation = probation
	lb.outlierAlpha = 0.2
	lb.outlierMinSamples = 5
	lb.outliers = make([]workerOutlier, len(lb.workers))
	lb.baseline = make(map[string]*fleetBaseline)
}

// ObserveExec folds one completed execution into the scorer: the
// function's fleet baseline absorbs the sample, and the worker's EWMA
// absorbs the inflation ratio against that baseline. No-op until
// StartOutlierDetection. Scheduler replicas call it on every successful
// completion they settle.
func (lb *LB) ObserveExec(w *worker.Worker, fn string, execSecs float64) {
	if lb.outliers == nil || execSecs <= 0 {
		return
	}
	b, ok := lb.baseline[fn]
	if !ok {
		b = &fleetBaseline{}
		lb.baseline[fn] = b
	}
	if b.samples == 0 {
		b.mean = execSecs
	} else {
		b.mean = (1-baselineAlpha)*b.mean + baselineAlpha*execSecs
	}
	b.samples++
	if b.mean <= 0 {
		return
	}
	i, ok := lb.slot(w)
	if !ok {
		return
	}
	lb.observe(i, execSecs/b.mean)
}

// observe folds one inflation sample (1 = fleet-baseline speed) into
// worker i's score and advances the state machine.
func (lb *LB) observe(i int, inflation float64) {
	o := &lb.outliers[i]
	if o.samples == 0 {
		o.ewma = inflation
	} else {
		o.ewma = (1-lb.outlierAlpha)*o.ewma + lb.outlierAlpha*inflation
	}
	o.samples++
	now := lb.engine.Now()
	w := lb.workers[i]
	switch o.state {
	case outlierTrusted:
		if o.samples >= lb.outlierMinSamples && o.ewma >= ejectThreshold {
			// Probation is not a routing change: the worker keeps its
			// traffic while the window confirms the signal.
			o.state = outlierProbation
			o.since = now
			lb.Obs.Control("health.probation", w.ID.String())
		}
	case outlierProbation:
		if o.ewma < ejectThreshold {
			// The signal did not survive the window; return quietly.
			o.state = outlierTrusted
			o.since = now
			return
		}
		if now-o.since >= lb.probation {
			o.state = outlierEjected
			o.since = now
			lb.Ejected.Inc()
			lb.Obs.Control("health.ejected", w.ID.String())
		}
	case outlierEjected:
		if o.ewma <= reinstateThreshold && now-o.since >= lb.probation {
			o.state = outlierTrusted
			o.since = now
			lb.Reinstated.Inc()
			lb.Obs.Control("health.reinstated", w.ID.String())
		}
	}
}

// observeProbe feeds the heartbeat probe's slowdown reading into the
// scorer for workers in probation or ejected: an ejected worker receives
// no dispatches, so completions can never clear its score — the probe
// (whose slowdown factor is itself an inflation reading against nominal
// speed) is its road back.
func (lb *LB) observeProbe(i int, slowdown float64) {
	if lb.outliers == nil {
		return
	}
	if s := lb.outliers[i].state; s == outlierProbation || s == outlierEjected {
		lb.observe(i, slowdown)
	}
}
