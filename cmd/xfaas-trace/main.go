// Command xfaas-trace generates and inspects synthetic XFaaS workload
// traces without running the platform: it prints the population's
// composition (trigger shares, quota split, analytic demand), samples
// per-call resource distributions, and can emit a per-minute arrival
// series as CSV.
//
// Usage:
//
//	xfaas-trace -functions 240 -rps 60 -hours 24 -csv arrivals.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

func main() { os.Exit(run()) }

// run is main returning its exit code: 0, 1 when the CSV cannot be
// written in full, or 2 for a flag value no trace can use.
func run() int {
	var (
		functions = flag.Int("functions", 240, "population size")
		rps       = flag.Float64("rps", 60, "platform mean received RPS")
		hours     = flag.Int("hours", 24, "trace length in simulated hours")
		seed      = flag.Uint64("seed", 1, "generation seed")
		csvPath   = flag.String("csv", "", "write per-minute arrival counts to this CSV file")
		draws     = flag.Int("draws", 20000, "per-call resource samples for the distribution summary")
	)
	flag.Parse()
	if err := checkFlags(*functions, *rps, *hours, *draws); err != nil {
		fmt.Fprintln(os.Stderr, "xfaas-trace:", err)
		return 2
	}

	cfg := workload.DefaultPopulationConfig()
	cfg.Functions = *functions
	cfg.TotalRPS = *rps
	cfg.SpikeBurstRPS = *rps * 7.5 // keep the Figure 4 burst proportional
	pop := workload.NewPopulation(cfg, rng.New(*seed))

	fmt.Printf("Population: %d functions, mean %.0f RPS, analytic demand %.0f MIPS, concurrent memory %.1f GB\n",
		pop.Registry.Len(), pop.TotalMeanRPS(), pop.ExpectedMIPS(), pop.ExpectedConcurrentMemMB(150)/1024)

	counts := map[function.TriggerType]int{}
	quota := map[function.QuotaType]int{}
	for _, s := range pop.Registry.All() {
		counts[s.Trigger]++
		quota[s.Quota]++
	}
	fmt.Printf("Triggers: queue=%d event=%d timer=%d | quota: reserved=%d opportunistic=%d\n",
		counts[function.TriggerQueue], counts[function.TriggerEvent], counts[function.TriggerTimer],
		quota[function.QuotaReserved], quota[function.QuotaOpportunistic])

	// Per-call resource summaries (Table 3 style).
	cpu, mem, dur := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	perModel := *draws/len(pop.Models) + 1
	for _, m := range pop.Models {
		for i := 0; i < perModel; i++ {
			c := m.NewCall(0)
			cpu.Observe(c.CPUWorkM)
			mem.Observe(c.MemMB)
			dur.Observe(c.ExecSecs)
		}
	}
	fmt.Printf("CPU (M instr/call):  %s\n", cpu.Summarize())
	fmt.Printf("Memory (MB/call):    %s\n", mem.Summarize())
	fmt.Printf("Exec time (s/call):  %s\n", dur.Summarize())

	// Arrival series.
	engine := sim.NewEngine()
	gen := workload.NewGenerator(engine, pop, []float64{1},
		func(cluster.RegionID, string, *function.Call) error { return nil }, rng.New(*seed+1))
	gen.Start()
	engine.RunFor(time.Duration(*hours) * time.Hour)
	series := gen.ReceivedSeries.Values()
	fmt.Print(stats.ASCIIChart(fmt.Sprintf("arrivals per minute over %dh", *hours), series, 72, 10))
	fmt.Printf("Total calls: %.0f, peak/trough (10-min smoothed): %.1f\n",
		gen.Generated.Value(), stats.PeakToTrough(stats.Resample(series, len(series)/10+1)))

	if *csvPath != "" {
		if err := writeCSV(*csvPath, series); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *csvPath, err)
			return 1
		}
		fmt.Printf("Wrote %s (%d rows)\n", *csvPath, len(series))
	}
	return 0
}

// checkFlags rejects an empty population or trace, a trace too long for
// a time.Duration, a rate that is not positive and a negative number of
// samples.
func checkFlags(functions int, rps float64, hours, draws int) error {
	if functions < 1 || !(rps > 0) || hours < 1 || draws < 0 {
		return fmt.Errorf("want -functions, -rps and -hours positive and -draws >= 0 (have %d, %g, %d, %d)", functions, rps, hours, draws)
	}
	if hours > int(workload.MaxSpecSeconds)/3600 {
		return fmt.Errorf("-hours must be at most %d (have %d)", int(workload.MaxSpecSeconds)/3600, hours)
	}
	return nil
}

// writeCSV writes the per-minute arrival series to path, reporting the
// first failed write, flush or close.
func writeCSV(path string, series []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "minute,calls")
	for i, v := range series {
		fmt.Fprintf(w, "%d,%g\n", i, v)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
