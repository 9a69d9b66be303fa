// Command xfaas-sim regenerates the paper's tables and figures from the
// simulated platform.
//
// Usage:
//
//	xfaas-sim -list
//	xfaas-sim -run fig2 -charts
//	xfaas-sim -run all -full -out results/
//	xfaas-sim -run fig7 -seed 3 -cpuprofile cpu.pprof -memprofile heap.pprof
//	xfaas-sim -policy-matrix POLICY_MATRIX.json -seed 7
//
// Each experiment prints paper-vs-measured rows, PASS/FAIL shape checks,
// and (with -charts) ASCII renderings of the series. With -out, every
// series is also written as CSV for external plotting.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/experiment"
	"xfaas/internal/psim"
	"xfaas/internal/workload"
)

func main() { os.Exit(run()) }

// run is main returning its exit code, so the deferred end of the
// profiles happens on every path out.
func run() int {
	var (
		list      = flag.Bool("list", false, "list available experiments and exit")
		run       = flag.String("run", "", "experiment id to run, or \"all\"")
		chaosFlag = flag.String("chaos", "", "chaos scenario to run: "+strings.Join(chaosNames(), ", ")+"; output is fully deterministic")
		full      = flag.Bool("full", false, "paper-scale runs (full simulated day) instead of quick")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		charts    = flag.Bool("charts", true, "render ASCII charts of result series")
		out       = flag.String("out", "", "directory to write per-series CSV files")
		md        = flag.Bool("markdown", false, "emit Markdown sections (EXPERIMENTS.md format) instead of terminal output")
		inv       = flag.Bool("invariants", false, "run the platform invariant checker on every experiment and fail on violations")
		slo       = flag.Bool("slo", false, "enable core-second accounting and SLO burn-rate evaluation on every run")
		policy    = flag.String("policy", "", "scheduling policy for every run: "+strings.Join(config.PolicyNames(), ", ")+" (default push)")
		matrix    = flag.String("policy-matrix", "", "run every scheduling policy through every overload scenario and write the table to this JSON file; a pure function of -seed")

		parallel = flag.Int("parallel", 0, "run the partitioned platform simulation with this many partitions (0 = off); output is deterministic and byte-identical to -seq")
		seq      = flag.Bool("seq", false, "with -parallel: run the same partitions on the single-goroutine reference scheduler")
		minutes  = flag.Int("minutes", 10, "with -parallel: virtual minutes to simulate")
		pchaos   = flag.Bool("pchaos", false, "with -parallel: inject the deterministic per-partition fault schedule")
		pdrain   = flag.Bool("pdrain", false, "with -parallel: run the evacuation drill (each partition drains its first region at 0.3 of the run, undrains at 0.6)")
		traced   = flag.Bool("traced", false, "with -parallel: sample per-call traces")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()
	if maxMinutes := int(workload.MaxSpecSeconds) / 60; *parallel < 0 || *minutes < 1 || *minutes > maxMinutes {
		fmt.Fprintf(os.Stderr, "xfaas-sim: -parallel must not be negative and -minutes must be in [1, %d] (have %d, %d)\n",
			maxMinutes, *parallel, *minutes)
		return 2
	}
	// Each mode reads only its own flags and the profiles: a flag set
	// outside them is a usage error, not an option ignored in silence.
	mode, reads := "-run", "run seed full charts out markdown invariants slo policy"
	switch {
	case *matrix != "":
		mode, reads = "-policy-matrix", "policy-matrix seed"
	case *parallel > 0:
		mode, reads = "-parallel", "parallel seq minutes seed pchaos pdrain traced invariants slo"
	case *chaosFlag != "":
		mode, reads = "-chaos", "chaos seed full charts out markdown invariants slo policy"
	case *list || *run == "":
		mode, reads = "-list", "list"
	}
	var stray []string
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(strings.Fields(reads+" cpuprofile memprofile"), f.Name) {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		fmt.Fprintf(os.Stderr, "xfaas-sim: %s mode does not read %s\n", mode, strings.Join(stray, ", "))
		return 2
	}
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	if err := config.CheckPolicy(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "%v; available: %s\n", err, strings.Join(config.PolicyNames(), ", "))
		return 2
	}
	scale := experiment.Scale{Quick: !*full, Seed: *seed, Invariants: *inv, Observe: *slo, Policy: *policy}

	if *matrix != "" {
		if err := writePolicyMatrix(*matrix, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *parallel > 0 {
		opts := psim.DefaultOptions()
		opts.Parts = *parallel
		opts.Seq = *seq
		opts.Minutes = *minutes
		opts.Seed = *seed
		opts.Chaos = *pchaos
		opts.Drain = *pdrain
		opts.Traced = *traced
		opts.Invariants = *inv
		opts.SLO = *slo
		if opts.Parts > opts.Regions {
			fmt.Fprintf(os.Stderr, "-parallel=%d exceeds the %d-region topology\n", opts.Parts, opts.Regions)
			return 2
		}
		r := psim.New(opts)
		fmt.Print(r.Run())
		if *inv {
			if v := r.Violations(); len(v) > 0 {
				for _, x := range v {
					fmt.Fprintf(os.Stderr, "invariant violation: %v\n", x)
				}
				return 1
			}
		}
		return 0
	}

	var targets []*experiment.Experiment
	switch {
	case *chaosFlag != "":
		e, ok := chaosScenario(*chaosFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown chaos scenario %q; available: %s\n", *chaosFlag, strings.Join(chaosNames(), ", "))
			return 2
		}
		targets = []*experiment.Experiment{e}
	case mode == "-list":
		fmt.Println("Available experiments (paper artifact → id):")
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 1, ' ', 0)
		for _, e := range experiment.All() {
			fmt.Fprintf(tw, "  %s\t%s\n", e.ID, e.Title)
		}
		tw.Flush()
		fmt.Println("\nChaos scenario library (use -chaos <name>):")
		for _, e := range experiment.All() {
			if name, ok := e.Chaos(); ok {
				fmt.Printf("  %-15s %s\n", name, e.Title)
			}
		}
		fmt.Println("\nWorkload presets (Table 2, used by the capacity experiments):")
		for _, w := range workload.NamedWorkloads() {
			fmt.Printf("  %-15s %d functions, %.1f RPS/function, %s quota\n",
				w.Name, w.Functions, w.MeanRPSPerFunc, w.Quota)
		}
		if !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return 0
	case *run == "all":
		targets = experiment.All()
	default:
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiment.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				return 2
			}
			targets = append(targets, e)
		}
	}

	failed := 0
	for _, e := range targets {
		start := time.Now()
		res := e.Run(scale)
		if *md {
			fmt.Print(res.Markdown())
		} else {
			fmt.Print(res.Render(*charts))
			// A chaos run prints only simulation-derived output, so two
			// runs of one scenario and seed are byte-identical.
			if *chaosFlag == "" {
				fmt.Printf("(%s in %.1fs wall clock)\n\n", e.ID, time.Since(start).Seconds())
			}
		}
		if !res.ChecksOK() {
			failed++
		}
		if *out != "" {
			if err := writeCSV(*out, res); err != nil {
				fmt.Fprintf(os.Stderr, "writing CSV: %v\n", err)
				return 1
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing shape checks\n", failed)
		return 1
	}
	return 0
}

// chaosScenario returns the experiment `-chaos name` runs.
func chaosScenario(name string) (*experiment.Experiment, bool) {
	for _, e := range experiment.All() {
		if n, ok := e.Chaos(); ok && n == name {
			return e, true
		}
	}
	return nil, false
}

// chaosNames lists every scenario name -chaos accepts, in ID order.
func chaosNames() []string {
	var names []string
	for _, e := range experiment.All() {
		if n, ok := e.Chaos(); ok {
			names = append(names, n)
		}
	}
	return names
}

// startProfiles starts a CPU profile now, if cpu names a file, and
// returns the function that ends it and then, if mem names a file, writes
// the heap profile of that moment.
func startProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // a heap profile reports as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		return f.Close()
	}, nil
}

// writePolicyMatrix runs the scheduling-policy × overload-scenario matrix,
// prints it as a table and writes it to path as JSON. The document has no
// date field, so CI can run it twice and byte-diff the outputs.
func writePolicyMatrix(path string, seed uint64) error {
	m := experiment.RunPolicyMatrix(seed)
	fmt.Printf("%-14s %-8s %6s %10s %6s %8s %8s %6s\n",
		"scenario", "policy", "util", "p99(s)", "cold", "shed", "expired", "jain")
	for _, c := range m.Cells {
		fmt.Printf("%-14s %-8s %6.2f %10.1f %6.3f %8.0f %8.0f %6.3f\n",
			c.Scenario, c.Policy, c.UtilizationMean, c.P99E2ESeconds,
			c.ColdStartExposure, c.ShedCalls, c.ExpiredCalls, c.JainFairness)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("policy matrix: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func writeCSV(dir string, res *experiment.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range res.Series {
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '-'
			}
		}, s.Name)
		if err := writeSeries(filepath.Join(dir, res.ID+"_"+name+".csv"), s); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries writes one series as CSV to path, reporting the first
// failed write, flush or close.
func writeSeries(path string, s experiment.NamedSeries) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "t_seconds,value\n")
	for i, v := range s.Values {
		fmt.Fprintf(w, "%g,%g\n", (time.Duration(i) * s.Step).Seconds(), v)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
