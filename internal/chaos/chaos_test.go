package chaos

import (
	"slices"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

// testPlatform builds a small stationary-load platform with a generator
// running, suitable for fault injection.
func testPlatform(seed uint64) *core.Platform {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Cluster.Regions = 3
	cfg.Cluster.TotalWorkers = 12
	cfg.Downstreams = []core.DownstreamSpec{{Name: "db", CapacityRPS: 1000}}
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 16
	pcfg.TotalRPS = 4
	pcfg.SpikyFunctions = 0
	pcfg.MidnightSpikeFrac = 0
	pcfg.DiurnalAmp = 0
	pop := workload.NewPopulation(pcfg, rng.New(seed+1000))
	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(seed+2000))
	gen.Start()
	return p
}

// chaosRun drives one platform through a fixed mix of faults, some of
// them placed by the injector's seeded stream, and returns the injector
// afterwards.
func chaosRun(seed uint64) (*core.Platform, *Injector) {
	p := testPlatform(seed)
	inj := NewInjector(p, rng.New(seed+9000))
	at := func(d time.Duration, fn func()) { p.Engine.Schedule(d, fn) }
	at(2*time.Minute, func() { inj.CorrelatedCrash(0, 0.5, true) })
	at(4*time.Minute, func() { inj.GrayWorker(1, 0, 10) })
	at(5*time.Minute, func() { inj.PartitionRegion(1) })
	at(6*time.Minute, func() { inj.CorrelatedCrash(2, 0.25, false) })
	at(8*time.Minute, func() { inj.HealPartition(1) })
	at(9*time.Minute, func() { inj.ClearGray(1, 0) })
	at(10*time.Minute, func() { inj.ShardOutage(2, 0, 3*time.Minute) })
	at(12*time.Minute, func() { inj.BuggyFor("db", 0.8, 2*time.Minute) })
	p.Engine.RunFor(30 * time.Minute)
	return p, inj
}

// TestInjectorDeterminism is the chaos engine's core contract: two
// platforms with the same seed, driven through the same scripted and
// stochastic fault mix, produce identical fault schedules and identical
// platform outcomes.
func TestInjectorDeterminism(t *testing.T) {
	p1, inj1 := chaosRun(7)
	p2, inj2 := chaosRun(7)

	ev1, ev2 := inj1.Events(), inj2.Events()
	if len(ev1) == 0 {
		t.Fatal("no fault events injected")
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].String() != ev2[i].String() {
			t.Fatalf("event %d differs:\n  %s\n  %s", i, ev1[i], ev2[i])
		}
	}
	if a1, a2 := p1.Acked(), p2.Acked(); a1 != a2 {
		t.Fatalf("acked counts diverge under identical chaos: %v vs %v", a1, a2)
	}
	if p1.Engine.Now() != p2.Engine.Now() {
		t.Fatalf("virtual clocks diverge: %v vs %v", p1.Engine.Now(), p2.Engine.Now())
	}
}

// TestInjectorSeedChangesSchedule guards against the RNG being ignored:
// a different injector seed must yield a different stochastic schedule.
func TestInjectorSeedChangesSchedule(t *testing.T) {
	_, inj1 := chaosRun(7)
	_, inj2 := chaosRun(8)
	ev1, ev2 := inj1.Events(), inj2.Events()
	if len(ev1) == len(ev2) {
		same := true
		for i := range ev1 {
			if ev1[i].String() != ev2[i].String() {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault schedules")
		}
	}
}

func TestCorrelatedCrashContiguousBlock(t *testing.T) {
	p := testPlatform(5)
	inj := NewInjector(p, rng.New(11))
	reg := p.Region(cluster.RegionID(0))
	n := len(reg.Workers)
	picked := inj.CorrelatedCrash(0, 0.5, true)
	if want := (n + 1) / 2; len(picked) != want && len(picked) != n/2 {
		t.Fatalf("block size = %d for %d workers", len(picked), n)
	}
	for _, i := range picked {
		if !reg.Workers[i].Failed() {
			t.Fatalf("picked worker %d not failed", i)
		}
	}
	// The block is contiguous modulo n: as a sorted index set, the
	// complement must also be one contiguous run.
	inBlock := make([]bool, n)
	for _, i := range picked {
		inBlock[i] = true
	}
	transitions := 0
	for i := 0; i < n; i++ {
		if inBlock[i] != inBlock[(i+1)%n] {
			transitions++
		}
	}
	if transitions != 2 && len(picked) != n {
		t.Fatalf("block not contiguous mod %d: picked=%v", n, picked)
	}
}

func TestShardOutageWindow(t *testing.T) {
	p := testPlatform(2)
	inj := NewInjector(p, rng.New(1))
	sh := p.Region(cluster.RegionID(1)).Shards[0]
	inj.ShardOutage(1, 0, 30*time.Second)
	if !sh.IsDown() {
		t.Fatal("shard not down at outage start")
	}
	p.Engine.RunFor(29 * time.Second)
	if !sh.IsDown() {
		t.Fatal("shard came back early")
	}
	p.Engine.RunFor(2 * time.Second)
	if sh.IsDown() {
		t.Fatal("shard still down after outage window")
	}
}

// firstKind is the injector event each op logs first when its step fires.
var firstKind = map[Op]string{
	OpGray: "gray", OpClearGray: "gray-clear", OpFlap: "gray", OpRackCrash: "rack-crash",
	OpPartition: "partition", OpHeal: "partition-heal", OpDrain: "drain", OpUndrain: "undrain",
	OpShardOutage: "shard-down", OpShardCrash: "shard-crash", OpSubmitterCrash: "submitter-crash",
	OpSchedulerCrash: "scheduler-crash", OpBuggy: "buggy",
}

// TestScenarioTable arms every catalogue scenario on a small idle
// platform at two run lengths: each step's first injector event lands at
// its fraction of the run (a flap's first flip one period later), every
// op is used by some scenario, names are unique, and an unknown name
// finds nothing.
func TestScenarioTable(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 3
	cfg.Cluster.TotalWorkers = 12
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	used := map[Op]bool{}
	names := map[string]bool{}
	for _, sc := range Scenarios {
		if names[sc.Name] {
			t.Errorf("scenario %q listed twice", sc.Name)
		}
		names[sc.Name] = true
		if len(sc.Steps) == 0 {
			t.Errorf("scenario %q has no step", sc.Name)
		}
		for _, dur := range []time.Duration{10 * time.Minute, 30 * time.Minute} {
			p := core.New(cfg, function.NewRegistry())
			inj := NewInjector(p, rng.New(7))
			sc.Arm(p, inj, dur)
			p.Engine.RunFor(dur)
			for i, s := range sc.Steps {
				used[s.Op] = true
				at := time.Duration(float64(dur) * s.At)
				if s.Op == OpFlap {
					at += s.For
				}
				if !slices.ContainsFunc(inj.Events(), func(e Event) bool { return e.At == at && e.Kind == firstKind[s.Op] }) {
					t.Errorf("%s at %v: step %d (%s) logged no event at %v: %v", sc.Name, dur, i, firstKind[s.Op], at, inj.Events())
				}
			}
		}
	}
	for op := OpGray; op <= OpBuggy; op++ { // OpBuggy is the last op
		if !used[op] {
			t.Errorf("op %d (%s) is used by no scenario", op, firstKind[op])
		}
	}
	if sc, ok := Lookup("nosuch"); ok || len(sc.Steps) != 0 {
		t.Errorf("Lookup(nosuch) = %+v, %v", sc, ok)
	}
}
