// Command xfaasd runs a live miniature XFaaS cell: the full simulated
// control plane paced against the wall clock, driven over HTTP.
//
//	xfaasd -listen :8080 -regions 3 -workers 12 -speedup 10
//
//	curl -X POST localhost:8080/functions -d '{"name":"resize","exec_median_seconds":0.3}'
//	curl -X POST localhost:8080/invoke -d '{"function":"resize"}'
//	curl localhost:8080/stats
//	curl localhost:8080/metrics            # Prometheus text exposition
//	curl localhost:8080/traces             # sampled call traces
//	curl localhost:8080/events             # control-plane event log
//	curl localhost:8080/invariants         # invariant checker state (-invariants)
//
// With -speedup N, one wall second advances N virtual seconds, so
// time-shifting and utilization control are observable in minutes.
// -config applies a JSON override file on top of the defaults, and
// -workload pre-registers a spec file's functions and drives their
// arrival processes on the platform's engine.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/httpapi"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		regions  = flag.Int("regions", 3, "datacenter regions")
		workers  = flag.Int("workers", 12, "total workers across regions")
		speedup  = flag.Float64("speedup", 1, "virtual seconds per wall second")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		sample   = flag.Uint64("trace-sample", 1, "trace 1 in N calls (0 disables per-call tracing)")
		inv      = flag.Bool("invariants", false, "continuously check platform invariants (GET /invariants)")
		slo      = flag.Bool("slo", false, "enable core-second accounting and SLO burn-rate alerts (GET /utilization, GET /slo)")
		confPath = flag.String("config", "", "JSON config-override file applied over the defaults")
		workPath = flag.String("workload", "", "JSON workload spec: functions to pre-register and generate")
	)
	flag.Parse()
	if err := checkFlags(*regions, *workers, *speedup); err != nil {
		fmt.Fprintln(os.Stderr, "xfaasd:", err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Cluster.Regions = *regions
	cfg.Cluster.TotalWorkers = *workers
	if *sample > 0 {
		cfg.Trace.Enabled = true
		cfg.Trace.SampleEvery = *sample
	}
	if *confPath != "" {
		data, err := os.ReadFile(*confPath)
		must(err)
		cfg, err = core.LoadConfig(data, cfg)
		must(err)
	}
	if *inv {
		cfg.Invariants.Enabled = true
	}
	if *slo {
		cfg.Observe = cfg.Observe.EnableAll()
	}

	// A -workload spec is registered before the platform is built so
	// PrewarmJIT sees the functions, then drives a generator on the
	// platform's engine.
	registry := function.NewRegistry()
	var pop *workload.Population
	if *workPath != "" {
		data, err := os.ReadFile(*workPath)
		must(err)
		sf, err := workload.ParseSpecFile(data)
		must(err)
		pop, err = sf.Population(rng.New(cfg.Seed + 3000))
		must(err)
		registry = pop.Registry
	}

	p := core.New(cfg, registry)

	srv := httpapi.NewServer(p, cfg.Seed+1)
	srv.Speedup = *speedup
	if pop != nil {
		gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(cfg.Seed+3001))
		gen.Start()
		fmt.Printf("xfaasd: loaded %d functions from %s\n", pop.Registry.Len(), *workPath)
	}
	stop := make(chan struct{})
	go srv.Pace(stop)
	defer close(stop)

	// SIGINT or SIGTERM stops the server and returns from main.
	server := &http.Server{Addr: *listen, Handler: srv.Handler()}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { <-sig; server.Close() }()
	fmt.Printf("xfaasd: %d regions, %d workers, %gx time compression, listening on %s\n",
		cfg.Cluster.Regions, cfg.Cluster.TotalWorkers, *speedup, *listen)
	if err := server.ListenAndServe(); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags rejects a topology the cluster cannot build and a clock that
// would not advance.
func checkFlags(regions, workers int, speedup float64) error {
	if err := (cluster.Config{Regions: regions, TotalWorkers: workers}).Validate(); err != nil {
		return fmt.Errorf("-regions, -workers: %w", err)
	}
	if !(speedup > 0) {
		return fmt.Errorf("want -speedup > 0, have %g", speedup)
	}
	return nil
}

// must exits with err's message when a startup step failed.
func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
