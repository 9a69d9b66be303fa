package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// pass is one measured run of a workload: set-up (construction plus
// warm-up, possibly several times), then the timed window.
type pass struct {
	// setupS holds every set-up's host seconds; the last set-up's
	// simulation is the one the window runs on. warmWallS is the warm-up
	// part of that last set-up.
	setupS    []float64
	warmWallS float64
	wallS     float64
	// start and end are the counter readings around the window.
	start, end          counters
	mallocs, allocBytes uint64
	liveHeapMB          float64
	// calibMs are the calibration kernel's times before and after the
	// window; noisy marks a window that was re-run because they differed
	// by more than calibTolerance.
	calibMs [2]float64
	noisy   bool
	digest  string
	// violation is the first invariant violation's text, if any.
	violation string
	// Maxima and means over the simulated-minute slice boundaries
	// (traced pass only).
	enginePendingMax, pendingMax, leasedMax, journalLenMax int
	utilMean                                               float64
	spans                                                  *spanRecorder
	// fleetReport is psim's deterministic report (partitioned_fleet).
	fleetReport string
}

// window is the counters' change over the timed window (gauges as at its
// end).
func (p *pass) window() counters { return p.end.minus(p.start) }

// calibTolerance is how far the two calibrations around a window may
// differ before the window is re-run once and flagged noisy.
const calibTolerance = 0.10

var calibSink uint64

// calibrate times a fixed pure-Go kernel (xorshift plus a 32 KiB table
// walk, about 0.25 s on the reference box at size k = 1) and returns
// milliseconds. It allocates nothing and touches no simulator code, so a
// change in its time between the two ends of a window is machine drift.
func calibrate(k float64) float64 {
	var table [4096]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i, n := 0, scaled(120_000_000, k); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&4095] += x
	}
	calibSink += table[x&4095]
	return float64(time.Since(t0)) / 1e6
}

// referenceSeconds is the -seconds the benchmark is sized for. Smaller
// values shrink the simulated windows, the calibration kernel and the
// layer drivers' operation counts alike (the smoke test runs at 1/50).
const referenceSeconds = 10

func sizeScale(seconds float64) float64 { return math.Min(1, seconds/referenceSeconds) }

// profiles names the optional pprof outputs of a timed pass.
type profiles struct{ cpu, mem string }

// runPass builds def's simulation setups times (timing each), then runs
// and measures the window on the last one. With traced set the window
// runs in simulated-minute slices under the harness's spans. A window
// whose calibrations drifted is re-run once if setups > 1, which is the
// timed pass that the end-to-end metrics come from.
func runPass(def *workloadDef, seed uint64, seconds float64, traced bool, setups int, prof profiles) (*pass, error) {
	warm, window := def.minutes(seconds)
	p := &pass{}
	k := sizeScale(seconds)
	for attempt := 0; ; attempt++ {
		var rg *rig
		if attempt > 0 {
			setups = 1
		}
		for i := 0; i < setups; i++ {
			rg = nil
			runtime.GC()
			p.spans = nil
			if traced {
				p.spans = newSpanRecorder()
			}
			t0 := time.Now()
			rg = def.build(seed, warm, window, p.spans)
			built := time.Since(t0)
			rg.advance(warm)
			total := time.Since(t0)
			p.setupS = append(p.setupS, total.Seconds())
			p.warmWallS = (total - built).Seconds()
		}
		p.calibMs[0] = calibrate(k)
		runtime.GC()
		p.start = rg.read()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stopCPU, err := startCPUProfile(prof.cpu)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if traced {
			p.runSlices(rg, window)
		} else {
			rg.advance(window)
		}
		p.wallS = time.Since(t0).Seconds()
		stopCPU()
		runtime.ReadMemStats(&m1)
		p.end = rg.read()
		p.mallocs = m1.Mallocs - m0.Mallocs
		p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		// The forced collections also finish any cycle the window left
		// running, which would otherwise compete with the calibration.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		p.liveHeapMB = float64(m1.HeapAlloc) / (1 << 20)
		p.calibMs[1] = calibrate(k)
		if err := writeHeapProfile(prof.mem); err != nil {
			return nil, err
		}
		// The probes run every simulated minute and the window ends on
		// one, so the checker has just evaluated. Checker.Final would
		// evaluate again at the same instant, which the quota-ceiling probe
		// does not survive: it resets its high-water mark on every read.
		p.violation = ""
		for _, plat := range rg.plats {
			if vs := plat.Inv.Violations(); len(vs) > 0 && p.violation == "" {
				p.violation = vs[0].String()
			}
		}
		p.digest = rg.digest(p.end)
		if rg.fleet != nil {
			p.fleetReport = rg.fleet.Report()
		}
		runtime.KeepAlive(rg)
		drift := math.Abs(p.calibMs[1]-p.calibMs[0]) / math.Min(p.calibMs[0], p.calibMs[1])
		if drift <= calibTolerance || attempt > 0 {
			return p, nil
		}
		p.noisy = true
		if setups == 1 {
			// A traced or reference pass: its wall time only feeds ratios
			// among the per-layer metrics, so it is flagged, not repeated.
			return p, nil
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s window drifted %.0f%% (calibration %.1f ms → %.1f ms); re-running once\n",
			def.name, drift*100, p.calibMs[0], p.calibMs[1])
	}
}

// runSlices advances the window one simulated minute at a time, opening a
// slice span around each and reading the gauges at every boundary.
func (p *pass) runSlices(rg *rig, window time.Duration) {
	sp := p.spans
	sp.on = true
	root := sp.open(spanWindow, -1, sp.now())
	n := int(window / time.Minute)
	p.enginePendingMax, p.pendingMax, p.leasedMax, p.journalLenMax, p.utilMean = 0, 0, 0, 0, 0
	for i := 0; i < n; i++ {
		sp.slice = sp.open(spanSlice, root, sp.now())
		rg.advance(time.Minute)
		sp.close(sp.slice, sp.now())
		g := rg.read()
		p.enginePendingMax = max(p.enginePendingMax, g.enginePending)
		p.pendingMax = max(p.pendingMax, g.pending)
		p.leasedMax = max(p.leasedMax, g.leased)
		p.journalLenMax = max(p.journalLenMax, g.journalLen)
		p.utilMean += g.utilization / float64(n)
	}
	sp.close(root, sp.now())
	sp.on = false
}

// createFile creates path, making its directory first.
func createFile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := createFile(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
