package chaos

import "strings"

// LibraryEntry describes one adversarial scenario in the platform's
// catalog: a named fault or overload pattern with a deterministic,
// regenerable run behind it.
type LibraryEntry struct {
	// Name is the short scenario name used by -chaos flags.
	Name string
	// Description is a one-line summary of the fault and what the
	// platform is expected to do about it.
	Description string
	// Inspect marks scenarios runnable as `xfaas-inspect -chaos <name>`
	// (trace-level inspection of a single faulted run).
	Inspect bool
	// Experiment is the experiment id behind `xfaas-sim -chaos <name>`:
	// the full measured run with paper-vs-measured rows and shape checks.
	Experiment string
}

// Library enumerates every adversarial scenario, infrastructure faults
// first, then the overload-resilience scenarios. The catalog is what
// `-list` prints and what CI sweeps under -invariants.
func Library() []LibraryEntry {
	return []LibraryEntry{
		{
			Name:        "gray",
			Description: "a third of the largest region's workers silently degrade to a fraction of their speed; health probing detects and routes around them",
			Inspect:     true,
			Experiment:  "chaos_gray",
		},
		{
			Name:        "graytail",
			Description: "workers degrade subtly — slow enough to wreck the tail, fast enough to pass heartbeat probes; exec-time outlier ejection plus hedged dispatch recover the CritHigh p99",
			Inspect:     true,
			Experiment:  "chaos_graytail",
		},
		{
			Name:        "flapping",
			Description: "a worker oscillates across the gray threshold every probe; probation hysteresis keeps routing from flapping with it",
			Inspect:     true,
			Experiment:  "chaos_flapping",
		},
		{
			Name:        "evacuation",
			Description: "a planned regional drain: admission stops, CritHigh work migrates to peers, deferrable work time-shifts, and the drill reports its RTO with zero acked-call loss",
			Inspect:     true,
			Experiment:  "drill_evacuation",
		},
		{
			Name:        "partition",
			Description: "the largest region is cut off from the GTC and cross-region pulls; both sides keep executing local work until the heal",
			Inspect:     true,
			Experiment:  "chaos_partition",
		},
		{
			Name:        "correlated",
			Description: "80% of a region's workers die as one block; heartbeats detect it, leases evacuate, the breaker opens and shedding protects critical work",
			Inspect:     true,
			Experiment:  "chaos_correlated",
		},
		{
			Name:        "dq",
			Description: "every DurableQ shard in one region goes unavailable; QueueLBs route around the outage and the backlog drains on return",
			Inspect:     true,
			Experiment:  "chaos_dq",
		},
		{
			Name:        "shardcrash",
			Description: "a DurableQ shard crashes and replays its journal; loss is bounded by the flush window and delivery stays at-least-once",
			Inspect:     true,
			Experiment:  "chaos_shardcrash",
		},
		{
			Name:        "submittercrash",
			Description: "a submitter crashes mid-flush; unflushed batch entries are lost, the stateless restart resumes immediately",
			Inspect:     true,
			Experiment:  "chaos_submittercrash",
		},
		{
			Name:        "schedcrash",
			Description: "a scheduler crashes; its orphaned leases expire back to the shards and a stateless replica rebuilds its view",
			Inspect:     true,
			Experiment:  "chaos_schedcrash",
		},
		{
			Name:        "retrystorm",
			Description: "a downstream starts failing nearly every call; without retry budgets the storm's retries starve clean traffic, with budgets goodput holds",
			Inspect:     true,
			Experiment:  "chaos_retrystorm",
		},
		{
			Name:        "midnightspike",
			Description: "the midnight big-data-pipeline spike (Fig. 2) lands on a tightly provisioned fleet; delay-tolerant work defers, reserved traffic rides through",
			Experiment:  "chaos_midnightspike",
		},
		{
			Name:        "spikyclient",
			Description: "a spiky client submits its whole day of calls in one 15-minute burst (Fig. 4); quota spreads execution over hours with nothing lost",
			Experiment:  "chaos_spikyclient",
		},
		{
			Name:        "zipfneighbor",
			Description: "a Zipf-dominant tenant floods its opportunistic function; queue-delay shedding confines the damage to the noisy tenant",
			Experiment:  "chaos_zipfneighbor",
		},
	}
}

// Names lists the library's scenario names, comma-separated, for flag
// help and unknown-name errors; inspectOnly keeps just the scenarios
// xfaas-inspect runs.
func Names(inspectOnly bool) string {
	var names []string
	for _, c := range Library() {
		if c.Inspect || !inspectOnly {
			names = append(names, c.Name)
		}
	}
	return strings.Join(names, ", ")
}
