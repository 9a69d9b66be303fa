package psim

import (
	"slices"
	"testing"
	"time"

	"xfaas/internal/trace"
)

// testOptions is a run small enough for CI but busy enough to exercise
// the fabric: 2 partitions, cross-partition migration on, invariants on.
func testOptions() Options {
	o := DefaultOptions()
	o.Parts = 2
	o.Minutes = 3
	o.Regions = 4
	o.TotalWorkers = 24
	o.Functions = 24
	o.RPS = 60
	o.CrossFrac = 0.2
	o.Invariants = true
	return o
}

// TestParallelMatchesSeq is the core determinism gate: the P-goroutine
// run and the single-goroutine reference schedule over the same P
// partitions must produce byte-identical reports — plain at P = 1, 2 and
// 4, and at P = 2 with the fault schedule, the evacuation drill (each
// partition drains its first region mid-run with detection and hedging
// on) and per-call tracing (the migrate-out trace finalization path)
// each active.
func TestParallelMatchesSeq(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Options)
	}{
		{"plain P=1", func(o *Options) { o.Parts = 1 }},
		{"plain P=2", func(o *Options) { o.Parts = 2 }},
		{"plain P=4", func(o *Options) { o.Parts = 4 }},
		{"chaos", func(o *Options) { o.Chaos = true }},
		{"drain", func(o *Options) { o.Drain = true }},
		{"traced", func(o *Options) { o.Traced = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			tc.set(&opts)
			par := New(opts).Run()
			opts.Seq = true
			seq := New(opts).Run()
			if par != seq {
				t.Errorf("parallel and seq reports differ:\n--- parallel ---\n%s--- seq ---\n%s", par, seq)
			}
		})
	}
}

// TestRunTwiceIdentical re-runs identical options and demands identical
// bytes — the run-twice gate the serial engine has always had, now for
// the partitioned platform.
func TestRunTwiceIdentical(t *testing.T) {
	opts := testOptions()
	a := New(opts).Run()
	b := New(opts).Run()
	if a != b {
		t.Errorf("two identical runs differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestDrainConservation holds the ledger closed across the evacuation
// drill and demands the drill actually ran in every partition with zero
// in-flight loss.
func TestDrainConservation(t *testing.T) {
	opts := testOptions()
	opts.Drain = true
	opts.Minutes = 4
	r := New(opts)
	r.Run()
	if v := r.Violations(); len(v) != 0 {
		for _, x := range v {
			t.Errorf("violation: %v", x)
		}
	}
	for i, part := range r.Parts {
		if got := part.Platform.Drainer.Drains.Value(); got != 1 {
			t.Errorf("partition %d ran %.0f drains, want 1", i, got)
		}
		for _, reg := range part.Platform.Regions() {
			for _, sh := range reg.Shards {
				if sh.LostOnCrash.Value() != 0 {
					t.Errorf("partition %d shard %v lost calls during a graceful drain", i, sh.ID)
				}
			}
		}
	}
}

// TestDrainIsLogged: the drill is an injected fault like any other, so
// every partition's control log records the drain at 0.3 of the run and
// the undrain at 0.6.
func TestDrainIsLogged(t *testing.T) {
	opts := testOptions()
	opts.Drain = true
	r := New(opts)
	r.Run()
	run := time.Duration(opts.Minutes) * time.Minute
	for i, part := range r.Parts {
		for _, want := range []struct {
			kind string
			frac float64
		}{{"chaos.drain", 0.3}, {"chaos.undrain", 0.6}} {
			at := time.Duration(float64(run) * want.frac)
			if !slices.ContainsFunc(part.Platform.Tracer.Controls(), func(e trace.ControlEvent) bool {
				return e.Kind == want.kind && e.At == at
			}) {
				t.Errorf("partition %d logged no %s at %v", i, want.kind, at)
			}
		}
	}
}

// TestMigrationConservation drives heavy cross-partition traffic with
// the full invariant engine on: every partition's ledger must close
// (zero violations including the final evaluation), calls must actually
// migrate, and no call may be minted by the fabric — the global
// migrated-in total can never exceed migrated-out (the difference is
// exactly what was still on the wire at the deadline).
func TestMigrationConservation(t *testing.T) {
	opts := testOptions()
	opts.CrossFrac = 0.5
	opts.Minutes = 4
	r := New(opts)
	r.Run()

	if v := r.Violations(); len(v) != 0 {
		for _, x := range v {
			t.Errorf("violation: %v", x)
		}
	}
	var out, in, indrop float64
	for _, part := range r.Parts {
		out += part.Platform.MigratedOut.Value()
		in += part.Platform.MigratedIn.Value()
		indrop += part.Platform.MigratedDropped.Value()
	}
	if out == 0 {
		t.Fatal("no calls migrated despite CrossFrac=0.5")
	}
	if in > out {
		t.Errorf("migrated in %.0f exceeds migrated out %.0f", in, out)
	}
	if indrop > in {
		t.Errorf("migrated-dropped %.0f exceeds migrated-in %.0f", indrop, in)
	}
}

// TestChaosConservation holds the ledger closed while the fault schedule
// crashes workers, shards and submitters in every partition.
func TestChaosConservation(t *testing.T) {
	opts := testOptions()
	opts.Chaos = true
	opts.Minutes = 4
	r := New(opts)
	r.Run()
	if v := r.Violations(); len(v) != 0 {
		for _, x := range v {
			t.Errorf("violation: %v", x)
		}
	}
}

// TestIDNamespacesDisjoint verifies the IDBase partitioning: with high
// migration no duplicate-call-id violation may fire, and every
// partition's platform keeps assigning from its own high-bits namespace.
func TestIDNamespacesDisjoint(t *testing.T) {
	opts := testOptions()
	opts.CrossFrac = 0.5
	r := New(opts)
	r.Run()
	for _, v := range r.Violations() {
		if v.Name == "duplicate-call-id" {
			t.Errorf("duplicate call ID across partitions: %v", v)
		}
	}
}

// TestPartitionRegionsContiguous pins the region split rule the fabric
// lookahead derivation depends on.
func TestPartitionRegionsContiguous(t *testing.T) {
	groups := partitionRegions(7, 3)
	want := [][]int{{0, 1, 2}, {3, 4}, {5, 6}}
	for p, g := range groups {
		if len(g) != len(want[p]) {
			t.Fatalf("partition %d has %d regions, want %d", p, len(g), len(want[p]))
		}
		for j, id := range g {
			if int(id) != want[p][j] {
				t.Errorf("partition %d region %d = %d, want %d", p, j, id, want[p][j])
			}
		}
	}
}

// TestSinglePartitionNoFabric checks P=1 degenerates cleanly: no Remote
// hooks, no migration, and the run still completes and reports.
func TestSinglePartitionNoFabric(t *testing.T) {
	opts := testOptions()
	opts.Parts = 1
	r := New(opts)
	r.Run()
	if got := r.Parts[0].Platform.MigratedOut.Value(); got != 0 {
		t.Errorf("single-partition run migrated %.0f calls", got)
	}
	// Quota-ceiling can fire legitimately at this scale (tiny per-function
	// rates make the watermark comparison noisy); this test is about the
	// fabric and the ledger, so gate on those.
	for _, v := range r.Violations() {
		if v.Name != "quota-ceiling" {
			t.Errorf("violation in single-partition run: %v", v)
		}
	}
}
