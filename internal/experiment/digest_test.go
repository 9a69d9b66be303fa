package experiment

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/psim"
	"xfaas/internal/rng"
	"xfaas/internal/trace"
	"xfaas/internal/workload"
)

// The refactoring contract, executable: seeded output must be
// byte-identical before and after a change that is not meant to alter
// behaviour. Run-twice determinism cannot show that, so this test hashes
// everything the observers produce — trace dumps, Chrome export, control
// log, ledger totals, violations, counters — for a fixed set of seeded
// runs and compares against digests recorded at a known-good commit.
//
// When a change alters simulated behaviour on purpose, regenerate with
//
//	go test ./internal/experiment -run TestSeededDigests -update-digests
//
// and say so in the change description.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/seeded_digests.txt from this build")

const digestFile = "testdata/seeded_digests.txt"

// dumpPlatform writes every observer's view of one finished run; chrome
// adds the Chrome trace_event export of the same traces.
func dumpPlatform(w io.Writer, p *core.Platform, chrome bool) {
	recent := p.Tracer.Recent()
	sampled, completed, dropped := p.Tracer.Stats()
	fmt.Fprintf(w, "traces sampled=%d completed=%d dropped=%d active=%d\n", sampled, completed, dropped, p.Tracer.Active())
	for _, t := range recent {
		io.WriteString(w, t.Render())
		if c, ok := t.Breakdown(); ok {
			fmt.Fprintf(w, "  phases %+v\n", c)
		}
	}
	for _, t := range p.Tracer.Slowest() {
		fmt.Fprintf(w, "slow %d %s\n", t.ID, t.Latency())
	}
	if chrome {
		if err := trace.WriteChrome(w, recent); err != nil {
			fmt.Fprintf(w, "chrome export: %v\n", err)
		}
	}
	for _, e := range p.Tracer.Controls() {
		fmt.Fprintf(w, "ctrl %d %s %s %s\n", e.Seq, e.At, e.Kind, e.Detail)
	}
	vs := p.Inv.Final()
	fmt.Fprintf(w, "ledger %+v late=%d evals=%d violations=%d\n", p.Inv.Totals(), p.Inv.LateEvents(), p.Inv.Evals(), p.Inv.TotalViolations())
	for _, v := range vs {
		fmt.Fprintf(w, "violation %s\n", v)
	}
	if err := p.WriteMetrics(w); err != nil {
		fmt.Fprintf(w, "metrics: %v\n", err)
	}
	for _, reg := range p.Regions() {
		for _, sh := range reg.Shards {
			fmt.Fprintf(w, "shard %v nacked=%.0f dead=%.0f/%.0f/%.0f/%.0f released=%.0f drained=%.0f/%.0f lost=%.0f replayed=%.0f\n",
				sh.ID, sh.Nacked.Value(), sh.DeadExhausted.Value(), sh.DeadExpired.Value(), sh.DeadBudget.Value(), sh.DeadShed.Value(),
				sh.Released.Value(), sh.DrainedOut.Value(), sh.DrainedIn.Value(), sh.LostOnCrash.Value(), sh.Replayed.Value())
		}
		for _, sc := range reg.Scheds {
			fmt.Fprintf(w, "sched r%d acked=%.0f nacked=%.0f hedged=%.0f/%.0f/%.0f/%.0f shed=%.0f swept=%.0f released=%.0f\n",
				reg.ID, sc.Acked.Value(), sc.Nacked.Value(), sc.Hedged.Value(), sc.HedgeWins.Value(), sc.HedgeCancelled.Value(),
				sc.HedgeDenied.Value(), sc.ShedCalls.Value(), sc.ExpiredSwept.Value(), sc.Released.Value())
		}
	}
	if p.SLO != nil {
		fmt.Fprintf(w, "slo %+v\n", p.SLO.Snapshot(p.Engine.Now()))
	}
	if p.Acct != nil {
		fmt.Fprintf(w, "acct %+v\n", p.Acct.Snapshot(p.Engine.Now()))
	}
}

// observeAll turns every observer on at full sampling.
func observeAll(cfg *core.Config) {
	cfg.Trace.Enabled = true
	cfg.Trace.SampleEvery = 1
	cfg.Trace.RingSize = 1 << 16
	cfg.Invariants.Enabled = true
	cfg.Observe = cfg.Observe.EnableAll()
}

// digestDefaultRig is the quick-scale default experiment rig, observed.
func digestDefaultRig(w io.Writer) {
	rc := defaultRig(QuickScale(), 0.66)
	observeAll(&rc.Platform)
	r := rc.build()
	r.P.Engine.RunFor(time.Hour)
	fmt.Fprintf(w, "generated=%.0f\n", r.Gen.Generated.Value())
	dumpPlatform(w, r.P, false)
}

// digestChaos is xfaas-inspect's defended three-region rig under one of
// its named fault schedules, observed: the chaos paths are where hedges,
// drains, budgets, dead letters, crashes and replays emit. On top of the
// inspector's population it carries a CritHigh mix with a deferred slice
// (stragglers for hedging to race, a durable backlog for a drain to
// migrate), one subtly gray worker throughout, and a lease timeout short
// enough for a crashed scheduler's leases to expire inside the run.
func digestChaos(w io.Writer, name string) {
	const seed, dur = 7, 20 * time.Minute
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Cluster.Regions = 3
	cfg.CodePushInterval = 0
	observeAll(&cfg)
	cfg.Durability.JournalEnabled = true
	cfg.Durability.FlushLag = 2 * time.Second
	cfg.Downstreams = []core.DownstreamSpec{{Name: "backend", CapacityRPS: 5000}}
	cfg.Worker.FailureSlowdown = 1.0
	cfg.Resilience = cfg.Resilience.EnableAll()
	cfg.GrayDetection.Enabled = true
	cfg.LeaseTimeout = 5 * time.Minute
	pcfg := workload.DefaultPopulationConfig()
	pcfg.Functions = 40
	pcfg.TotalRPS = 10
	pcfg.SpikyFunctions = 0
	pcfg.MidnightSpikeFrac = 0
	pcfg.DownstreamFrac = 0.25
	pcfg.Downstreams = []string{"backend"}
	pop := workload.NewPopulation(pcfg, rng.New(seed+100))
	crit := len(pop.Models)
	workload.BuildGrayMix(pop, workload.GrayMixConfig{Functions: 6, RPSPerFunc: 0.5}, rng.New(seed+150))
	for _, m := range pop.Models[crit:] {
		m.FutureStartFrac = 0.3
	}
	cfg.Cluster.TotalWorkers = core.ProvisionWorkers(cfg.Worker,
		pop.ExpectedMIPS()*1.4, pop.ExpectedConcurrentMemMB(cfg.Worker.CoreMIPS)*1.4,
		0.66, 2*cfg.Cluster.Regions)
	p := core.New(cfg, pop.Registry)
	gen := workload.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), p.SubmitFunc(), rng.New(seed+200))
	gen.Start()

	inj := chaos.NewInjector(p, rng.New(seed+300))
	at := func(frac float64) time.Duration { return time.Duration(float64(dur) * frac) }
	p.Engine.Schedule(at(0.1), func() { inj.GrayWorker(1, 0, 3) })
	switch name {
	case "correlated":
		p.Engine.Schedule(at(0.3), func() {
			picked := inj.CorrelatedCrash(0, 0.25, true)
			p.Engine.Schedule(at(0.4), func() {
				for _, i := range picked {
					inj.RestartWorker(0, i)
				}
			})
		})
	case "shardcrash":
		// Off the tick grid, so the journals have a torn tail to lose.
		p.Engine.Schedule(at(0.3)+730*time.Millisecond, func() {
			for i := range p.Region(0).Shards {
				inj.ShardCrashRestart(0, i, 30*time.Second)
			}
		})
	case "retrystorm":
		p.Engine.Schedule(at(0.25), func() { inj.BuggyFor("backend", 1.0, at(0.4)) })
	case "evacuation":
		p.Engine.Schedule(at(0.3), func() { inj.DrainRegion(1) })
		p.Engine.Schedule(at(0.6), func() { inj.UndrainRegion(1) })
	case "crashes":
		// Once region 1's submitter batch holds a call, so the crash
		// loses it.
		p.Engine.RunUntil(at(0.3))
		stepUntilBatched(p.Engine, p.Region(1).Normal)
		inj.CrashScheduler(0, 0)
		inj.CrashSubmitter(1, false)
	default:
		panic("unknown digest scenario " + name)
	}
	p.Engine.RunUntil(dur)
	// Let the deferred calls (up to eight hours out) run too, so the
	// traces of everything the faults touched complete and are dumped.
	gen.Stop()
	p.Engine.RunFor(9 * time.Hour)
	fmt.Fprintf(w, "generated=%.0f\n", gen.Generated.Value())
	for _, e := range inj.Events() {
		fmt.Fprintln(w, e)
	}
	dumpPlatform(w, p, true)
}

// digestPsim is the two-partition run with the fabric handoff traced,
// faulted and ledgered.
func digestPsim(w io.Writer, seq bool) {
	opts := psim.DefaultOptions()
	opts.Parts = 2
	opts.Minutes = 5
	opts.Seed = 7
	opts.Traced = true
	opts.Chaos = true
	opts.Invariants = true
	opts.Seq = seq
	r := psim.New(opts)
	io.WriteString(w, r.Run())
	for i, part := range r.Parts {
		fmt.Fprintf(w, "== part %d\n", i)
		dumpPlatform(w, part.Platform, false)
	}
}

func TestSeededDigests(t *testing.T) {
	t.Parallel()
	runs := []struct {
		name string
		run  func(io.Writer)
	}{
		{"default", digestDefaultRig},
		{"chaos-correlated", func(w io.Writer) { digestChaos(w, "correlated") }},
		{"chaos-shardcrash", func(w io.Writer) { digestChaos(w, "shardcrash") }},
		{"chaos-retrystorm", func(w io.Writer) { digestChaos(w, "retrystorm") }},
		{"chaos-evacuation", func(w io.Writer) { digestChaos(w, "evacuation") }},
		{"chaos-crashes", func(w io.Writer) { digestChaos(w, "crashes") }},
		{"psim-p2-parallel", func(w io.Writer) { digestPsim(w, false) }},
		{"psim-p2-seq", func(w io.Writer) { digestPsim(w, true) }},
	}
	got := make(map[string]string, len(runs))
	for _, r := range runs {
		h := sha256.New()
		var w io.Writer = h
		if dir := os.Getenv("XFAAS_DIGEST_DUMP"); dir != "" {
			// Debugging aid: keep the hashed text so a mismatch can be diffed
			// against the same dump from the reference commit.
			f, err := os.Create(dir + "/" + r.name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			w = io.MultiWriter(h, f)
		}
		bw := bufio.NewWriter(w)
		r.run(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		got[r.name] = fmt.Sprintf("%x", h.Sum(nil))
	}
	if got["psim-p2-parallel"] != got["psim-p2-seq"] {
		t.Errorf("psim parallel and seq runs diverge: %s vs %s", got["psim-p2-parallel"], got["psim-p2-seq"])
	}
	if *updateDigests {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, _ := strings.Cut(line, " ")
		want[name] = digest
	}
	for _, r := range runs {
		if got[r.name] != want[r.name] {
			t.Errorf("%s: seeded output changed\n got  %s\n want %s", r.name, got[r.name], want[r.name])
		}
	}
}

// TestFinalOnAThrottledFunction is the regression test for the violation
// the default observed rig used to end with. spiky-fn-00 is throttled at
// its quota, so its measured RPS sits at the ceiling the quota-ceiling
// probe checks, and the hour ends on a probe tick: Final evaluates that
// instant a second time. The probe's read of the limiter's admitted-RPS
// watermark used to reset it on every read, so the repeat judged the
// whole window's RPS against a watermark reset a moment before and
// reported a breach that never happened.
func TestFinalOnAThrottledFunction(t *testing.T) {
	t.Parallel()
	rc := defaultRig(QuickScale(), 0.66)
	rc.Platform.Invariants.Enabled = true
	r := rc.build()
	r.P.Engine.RunFor(time.Hour)
	if r.P.Central.Throttled.Value() == 0 {
		t.Fatal("nothing was throttled: the run does not exercise the quota ceiling")
	}
	violations, evals := r.P.Inv.TotalViolations(), r.P.Inv.Evals()
	vs := r.P.Inv.Final()
	if r.P.Inv.Evals() != evals+1 {
		t.Fatalf("Final ran %d evaluations, want 1", r.P.Inv.Evals()-evals)
	}
	if r.P.Inv.TotalViolations() != violations {
		t.Fatalf("evaluating one instant twice reported %v", vs)
	}
}
