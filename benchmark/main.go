// Command benchmark is the repository's performance benchmark: four
// loaded workloads measured end to end with tracing off, then again under
// harness-owned spans, plus standalone drivers for each layer's public
// functions. See README.md for the metric glossary and how to compare two
// commits.
//
// Usage (from this directory, or through run.sh from anywhere):
//
//	go run .                                  # every workload, three passes
//	go run . -workload loaded_day -skip-layers
//	go run . --workload storm_defended --seed 7 --seconds 10 --trace 0
//
// With one workload and an explicit -trace the last line of standard
// output is the driver contract's JSON object: the end-to-end metrics for
// -trace 0, the per-layer metrics for -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"xfaas/internal/stats"
)

// metricDef names one metric and its unit. The names are frozen: later
// changes are judged by them.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"simcalls_per_s", "1/s"},
	{"setup_s", "s"},
	{"allocs_per_call", "count"},
	{"alloc_bytes_per_call", "B"},
	{"live_heap_mb", "MB"},
	{"sim_completed_frac", "frac"},
	{"sim_deadline_met_frac", "frac"},
	{"nonfailed_frac", "frac"},
}

// tracedDefs are the per-layer metrics of the traced pass; the layer
// drivers' metrics (layerDrivers) complete the per-layer set.
var tracedDefs = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_call", "count"},
	{"sim.pending_max", "count"},
	{"sim.other_s", "s"},
	{"submitter.submit_s", "s"},
	{"submitter.submit_calls", "count"},
	{"submitter.rejected", "count"},
	{"scheduler.poll_s", "s"},
	{"scheduler.shed_s", "s"},
	{"scheduler.schedule_s", "s"},
	{"scheduler.dispatch_s", "s"},
	{"scheduler.ticks", "count"},
	{"scheduler.acked", "count"},
	{"scheduler.shed_calls", "count"},
	{"scheduler.hedges", "count"},
	{"scheduler.hedge_win_frac", "frac"},
	{"durableq.enqueued", "count"},
	{"durableq.redelivered", "count"},
	{"durableq.delivery_amplification", "x"},
	{"durableq.deadletters", "count"},
	{"durableq.pending_max", "count"},
	{"durableq.leased_max", "count"},
	{"journal.appends", "count"},
	{"journal.len_max", "count"},
	{"worker.executions", "count"},
	{"worker.util_mean", "frac"},
	{"worker.cold_frac", "frac"},
	{"trace.sampled", "count"},
	{"trace.dropped", "count"},
	{"invariant.violations", "count"},
	{"observers.overhead_x", "x"},
	{"psim.par_speedup_x", "x"},
	{"psim.migrated", "count"},
	{"harness.trace_overhead_x", "x"},
}

func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), tracedDefs...)
	for _, d := range layerDrivers {
		defs = append(defs, d.outs...)
	}
	return defs
}

// setupReps is how many times the timed pass sets up; setup_s is their
// median.
const setupReps = 3

type options struct {
	workloads  []string
	seed       uint64
	seconds    float64
	trace      int // 0 timed pass only, 1 or -1 all three passes
	skipLayers bool
	out        string
	spanDir    string
	cpuprofile string
	memprofile string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

type workloadReport struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	WarmMin   int               `json:"sim_warmup_min"`
	WindowMin int               `json:"sim_window_min"`
	WindowS   float64           `json:"window_s"`
	CalibMs   [2]float64        `json:"calib_ms"`
	Noisy     bool              `json:"noisy"`
	Digest    string            `json:"sim_digest"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Checks    []check           `json:"checks"`
}

func (w *workloadReport) correct() bool {
	for _, c := range w.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type report struct {
	Schema     string            `json:"schema"`
	Go         string            `json:"go"`
	CPUs       int               `json:"cpus"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Correct    bool              `json:"correct"`
	Workloads  []*workloadReport `json:"workloads"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// execute runs the selected workloads' passes and assembles the report.
func execute(o options) (*report, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	layers := o.trace != 0 && !o.skipLayers
	profile := func(prefix, name string) string {
		if prefix == "" {
			return ""
		}
		return prefix + "_" + name + ".pprof"
	}

	timed := map[string]*pass{}
	for _, name := range o.workloads {
		p, err := runPass(workloadByName(name), o.seed, o.seconds, false, setupReps,
			profiles{cpu: profile(o.cpuprofile, name), mem: profile(o.memprofile, name)})
		if err != nil {
			return nil, err
		}
		timed[name] = p
	}

	traced := map[string]*pass{}
	var drivers map[string]float64
	var fleetSeqS float64
	var fleetSeqReport string
	if layers {
		for _, name := range o.workloads {
			p, err := runPass(workloadByName(name), o.seed, o.seconds, true, 1, profiles{})
			if err != nil {
				return nil, err
			}
			if err := p.spans.dump(filepath.Join(o.spanDir, "trace_"+name+".json"), name); err != nil {
				return nil, err
			}
			traced[name] = p
		}
		if slices.Contains(o.workloads, "partitioned_fleet") {
			// The one-shot sequential reference: psim's own Run on the
			// single-goroutine scheduler. The parallel, split timed pass
			// must reproduce its report byte for byte.
			warm, window := workloadByName("partitioned_fleet").minutes(o.seconds)
			r := newFleet(o.seed, warm, window, true)
			t0 := time.Now()
			fleetSeqReport = r.Run()
			fleetSeqS = time.Since(t0).Seconds()
		}
		drivers = runLayerDrivers(sizeScale(o.seconds))
	}
	// observed_day is compared with loaded_day: same simulated outcome,
	// and the wall-time ratio is the observers' overhead.
	loadedRef := timed["loaded_day"]
	if loadedRef == nil && layers && slices.Contains(o.workloads, "observed_day") {
		p, err := runPass(workloadByName("loaded_day"), o.seed, o.seconds, false, 1, profiles{})
		if err != nil {
			return nil, err
		}
		loadedRef = p
	}

	rep := &report{
		Schema: "xfaas-benchmark/v1", Go: runtime.Version(), CPUs: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, Correct: true,
	}
	for _, name := range o.workloads {
		def, p := workloadByName(name), timed[name]
		warm, window := def.minutes(o.seconds)
		w := &workloadReport{
			Name: name, Why: def.why,
			WarmMin: int(warm / time.Minute), WindowMin: int(window / time.Minute),
			WindowS: p.wallS, CalibMs: p.calibMs, Noisy: p.noisy, Digest: p.digest,
		}
		e, d := p.end, p.window()
		refused := d.rejected + d.routeFailed + d.migratedDropped + d.lostSubmitter + d.lostShard
		w.Attempted, w.Failed = int64(d.generated), int64(refused)
		w.EndToEnd = map[string]metric{}
		for i, v := range []float64{
			ratio(d.generated, p.wallS),
			stats.ExactQuantile(p.setupS, 0.5),
			ratio(float64(p.mallocs), d.generated),
			ratio(float64(p.allocBytes), d.generated),
			p.liveHeapMB,
			ratio(d.completions, d.generated),
			1 - ratio(d.sloMisses, d.schedAcked),
			1 - ratio(refused+d.deadLetters, d.generated),
		} {
			w.EndToEnd[endToEndDefs[i].name] = metric{v, endToEndDefs[i].unit}
		}

		add := func(name string, ok bool, format string, args ...any) {
			w.Checks = append(w.Checks, check{name, ok, fmt.Sprintf(format, args...)})
		}
		gap := e.conservationGap()
		add("call conservation closes", gap == 0, "gap %+.0f of %.0f generated since construction", gap, e.generated)
		if def.name == "partitioned_fleet" {
			add("fabric handoffs in transit are non-negative", e.migratedOut >= e.migratedIn,
				"%.0f out, %.0f in", e.migratedOut, e.migratedIn)
		}
		if def.name == "observed_day" {
			add("zero invariant violations", e.violations == 0, "%.0f violations %s", e.violations, p.violation)
			if loadedRef != nil {
				add("simulated digest equals loaded_day's", p.digest == loadedRef.digest,
					"%s vs %s", p.digest, loadedRef.digest)
			}
		}
		if tp := traced[name]; tp != nil {
			tgap := tp.end.conservationGap()
			add("call conservation closes (traced pass)", tgap == 0, "gap %+.0f", tgap)
			add("traced pass has the timed pass's simulated digest", tp.digest == p.digest,
				"%s vs %s", tp.digest, p.digest)
			if def.name == "partitioned_fleet" {
				add("parallel split report is byte-identical to the one-shot Seq reference",
					p.fleetReport == fleetSeqReport, "%d vs %d bytes", len(p.fleetReport), len(fleetSeqReport))
			}
			w.PerLayer = perLayer(def, p, tp, loadedRef, fleetSeqS, drivers)
		}
		rep.Correct = rep.Correct && w.correct()
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep, nil
}

// perLayer assembles one workload's per-layer metrics from its traced
// pass tp, its timed pass p, and the invocation-wide references. A
// metric whose layer the workload does not run reads 0.
func perLayer(def *workloadDef, p, tp, loadedRef *pass, fleetSeqS float64, drivers map[string]float64) map[string]metric {
	d, sp := tp.window(), tp.spans
	spanned := sp.seconds(spanPoll) + sp.seconds(spanShed) + sp.seconds(spanSchedule) +
		sp.seconds(spanDispatch) + sp.seconds(spanSubmit)
	var observers, speedup float64
	if def.name == "observed_day" && loadedRef != nil {
		observers = ratio(p.wallS, loadedRef.wallS)
	}
	if def.name == "partitioned_fleet" {
		speedup = ratio(fleetSeqS, p.warmWallS+p.wallS)
	}
	// One value per tracedDefs entry, in its order.
	values := []float64{
		d.events, ratio(d.events, d.generated), float64(tp.enginePendingMax), tp.wallS - spanned,
		sp.seconds(spanSubmit), d.generated, d.rejected,
		sp.seconds(spanPoll), sp.seconds(spanShed), sp.seconds(spanSchedule), sp.seconds(spanDispatch),
		float64(sp.count[spanTick]), d.schedAcked, d.shedCalls,
		d.hedged, ratio(d.hedgeWins, d.hedged),
		d.enqueued, d.redelivered, ratio(d.enqueued+d.redelivered, d.enqueued), d.deadLetters,
		float64(tp.pendingMax), float64(tp.leasedMax),
		d.journalAppends, float64(tp.journalLenMax),
		d.executions, tp.utilMean, ratio(d.coldExecutions, d.executions),
		d.traceSampled, d.traceDropped, d.violations,
		observers, speedup, d.migratedOut,
		ratio(tp.wallS, p.wallS),
	}
	if len(values) != len(tracedDefs) {
		panic("benchmark: perLayer values and tracedDefs are out of step")
	}
	out := make(map[string]metric, len(values)+len(drivers))
	for i, v := range values {
		out[tracedDefs[i].name] = metric{v, tracedDefs[i].unit}
	}
	for _, d := range layerDrivers {
		for _, m := range d.outs {
			out[m.name] = metric{drivers[m.name], m.unit}
		}
	}
	return out
}

// print writes every metric by name with its unit, then the checks.
func (r *report) print(w io.Writer) {
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "== %s: %d simulated minutes after %d of warm-up, window %.2f s, calibration %.1f/%.1f ms, noisy=%v, digest %s\n",
			wl.Name, wl.WindowMin, wl.WarmMin, wl.WindowS, wl.CalibMs[0], wl.CalibMs[1], wl.Noisy, wl.Digest)
		for _, d := range endToEndDefs {
			fmt.Fprintf(w, "%-18s %-42s %16.6g %s\n", wl.Name, d.name, wl.EndToEnd[d.name].Value, d.unit)
		}
		if wl.PerLayer != nil {
			for _, d := range perLayerDefs() {
				fmt.Fprintf(w, "%-18s %-42s %16.6g %s\n", wl.Name, d.name, wl.PerLayer[d.name].Value, d.unit)
			}
		}
		for _, c := range wl.Checks {
			verdict := "PASS"
			if !c.OK {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-18s [%s] %s (%s)\n", wl.Name, verdict, c.Name, c.Detail)
		}
	}
}

// write saves the full report as indented JSON.
func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractLine is the driver contract's result object for a one-workload
// run.
func (w *workloadReport) contractLine(trace int) ([]byte, error) {
	metrics := w.EndToEnd
	if trace == 1 {
		metrics = w.PerLayer
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.correct(), w.Attempted, w.Failed, metrics})
}

func main() {
	var o options
	var names string
	all := make([]string, len(workloads))
	for i, w := range workloads {
		all[i] = w.name
	}
	flag.StringVar(&names, "workload", strings.Join(all, ","), "comma-separated workloads to run")
	flag.Uint64Var(&o.seed, "seed", 1, "keys the generated call streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "nominal host seconds per timed window; scales the simulated windows")
	flag.IntVar(&o.trace, "trace", -1, "0: timed pass only; 1: all passes; with one workload, also selects the metrics of the final JSON line")
	flag.BoolVar(&o.skipLayers, "skip-layers", false, "run the timed pass only")
	flag.StringVar(&o.out, "out", filepath.Join("out", "results.json"), "write the full report as JSON here (empty: do not)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write <prefix>_<workload>.pprof CPU profiles of the timed windows")
	flag.StringVar(&o.memprofile, "memprofile", "", "write <prefix>_<workload>.pprof heap profiles at the end of the timed windows")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	o.spanDir = "out"
	o.workloads = strings.Split(names, ",")
	for _, n := range o.workloads {
		if workloadByName(n) == nil {
			fail(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(all, ", ")))
		}
	}
	if o.seconds <= 0 || o.trace < -1 || o.trace > 1 || (o.trace == 1 && o.skipLayers) || flag.NArg() > 0 {
		fail(fmt.Errorf("need -seconds > 0, -trace 0 or 1 (1 not with -skip-layers), and no positional arguments"))
	}

	rep, err := execute(o)
	if err != nil {
		fail(err)
	}
	rep.print(os.Stdout)
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			fail(err)
		}
	}
	if len(rep.Workloads) == 1 && o.trace >= 0 {
		line, err := rep.Workloads[0].contractLine(o.trace)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: a correctness check failed")
		os.Exit(1)
	}
}
