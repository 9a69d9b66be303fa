// Package experiment regenerates every table and figure of the paper's
// evaluation (plus the ablations DESIGN.md calls out). Each experiment
// builds the needed platform slice, runs it on the simulation engine, and
// reports paper-vs-measured rows, named series for charting, and
// machine-checkable shape assertions. Absolute numbers are simulation-
// scale; the checks encode the paper's qualitative claims (who wins, by
// roughly what factor, where crossovers fall).
package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/stats"
)

// Scale is everything one invocation of an experiment is told: the
// fidelity/runtime tradeoff, the seed, and the options that apply to
// every platform the experiment builds. It travels with the run, so two
// experiments with different options can run at the same time.
type Scale struct {
	// Quick shrinks populations and time windows for tests and benches.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
	// Invariants turns on continuous invariant checking on every platform
	// and appends one "invariants hold" check, over the platforms this
	// experiment built or borrowed, to its result. Off, the result is
	// unchanged — the golden outputs of the determinism CI gate.
	Invariants bool
	// Observe turns on core-second accounting and the SLO engine. They
	// add metric families and control events but no report lines, and
	// draw no randomness, so they do not perturb the simulation.
	Observe bool
	// Policy names the scheduling policy (push, pull, prewarm, spes).
	// Empty is the default push policy, byte-identical to the pre-policy
	// scheduler. An unknown name panics when the first platform is
	// built: callers taking it from outside validate it first.
	Policy string

	// built receives the platforms of one run; Experiment.Run attaches
	// it. Being a func, it also keeps Scale from being compared or used
	// as a map key, which would tell two runs of equal options apart:
	// standardRun keys its cache on the option fields alone.
	built func(*core.Platform)
}

// QuickScale is the test/bench default.
func QuickScale() Scale { return Scale{Quick: true, Seed: 1} }

// FullScale is the CLI default.
func FullScale() Scale { return Scale{Quick: false, Seed: 1} }

// Row is one paper-vs-measured comparison line.
type Row struct {
	Label    string
	Paper    string
	Measured string
}

// Check is a machine-verifiable shape assertion.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// NamedSeries is a chartable time series.
type NamedSeries struct {
	Name   string
	Step   time.Duration
	Values []float64
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Rows   []Row
	Checks []Check
	Series []NamedSeries
	Notes  []string
}

func (r *Result) row(label, paper, format string, args ...any) {
	r.Rows = append(r.Rows, Row{Label: label, Paper: paper, Measured: fmt.Sprintf(format, args...)})
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) series(name string, step time.Duration, values []float64) {
	r.Series = append(r.Series, NamedSeries{Name: name, Step: step, Values: values})
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// ChecksOK reports whether every check passed.
func (r *Result) ChecksOK() bool {
	return !slices.ContainsFunc(r.Checks, func(c Check) bool { return !c.OK })
}

// Render formats the result for a terminal, including ASCII charts of its
// series.
func (r *Result) Render(charts bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		wl, wp := 8, 8
		for _, row := range r.Rows {
			if len(row.Label) > wl {
				wl = len(row.Label)
			}
			if len(row.Paper) > wp {
				wp = len(row.Paper)
			}
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wl, "metric", wp, "paper", "measured")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wl, row.Label, wp, row.Paper, row.Measured)
		}
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	if charts {
		for _, s := range r.Series {
			b.WriteString(stats.ASCIIChart(fmt.Sprintf("%s (per %v)", s.Name, s.Step), s.Values, 72, 8))
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the result as a Markdown section (EXPERIMENTS.md).
func (r *Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### `%s` — %s\n\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		b.WriteString("| metric | paper | measured |\n|---|---|---|\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", mdEscape(row.Label), mdEscape(row.Paper), mdEscape(row.Measured))
		}
		b.WriteString("\n")
	}
	for _, c := range r.Checks {
		mark := "✅"
		if !c.OK {
			mark = "❌"
		}
		fmt.Fprintf(&b, "- %s %s (%s)\n", mark, c.Name, c.Detail)
	}
	if len(r.Checks) > 0 {
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n\n", n)
	}
	// Up to two representative series, rendered as fenced ASCII charts so
	// the figure shapes are visible inline.
	for i, s := range r.Series {
		if i >= 2 {
			fmt.Fprintf(&b, "*(%d more series available via `xfaas-sim -run %s -out dir/`)*\n\n", len(r.Series)-2, r.ID)
			break
		}
		b.WriteString("```\n")
		b.WriteString(stats.ASCIIChart(fmt.Sprintf("%s (per %v)", s.Name, s.Step), s.Values, 72, 8))
		b.WriteString("```\n\n")
	}
	return b.String()
}

func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}

// Experiment is one regenerable paper artifact. run fills the Result
// that Run builds from ID and Title.
type Experiment struct {
	ID, Title string
	run       func(Scale, *Result)
}

// experiments is every experiment, sorted by id.
var experiments = []*Experiment{
	{"ablation-aimd", "AIMD back-pressure on vs off", runAblationAIMD},
	{"ablation-gtc", "Global dispatch vs region-local", runAblationGTC},
	{"ablation-timeshift", "Time-shifting on vs off", runAblationTimeShift},
	{"baseline-coldstart", "Universal worker vs per-function containers", runBaselineColdstart},
	{"chaos_correlated", "Correlated rack failure: detection, evacuation, degradation", runChaosCorrelated},
	{"chaos_dq", "DurableQ shard unavailability window", runChaosDQ},
	{"chaos_flapping", "Flapping worker: hysteresis stops routing oscillation", runChaosFlapping},
	{"chaos_gray", "Gray failure: slow workers detected and routed around", runChaosGray},
	{"chaos_graytail", "Gray tail: ejection + hedging recover the CritHigh p99", runChaosGrayTail},
	{"chaos_midnightspike", "Midnight pipeline spike: deferral, not shedding", runChaosMidnightSpike},
	{"chaos_partition", "Region partition and heal", runChaosPartition},
	{"chaos_retrystorm", "Retry storm: budgets bound amplification", runChaosRetryStorm},
	{"chaos_schedcrash", "Scheduler crash: orphaned leases expire, stateless replica rebuilds", runChaosSchedCrash},
	{"chaos_shardcrash", "DurableQ shard crash: journal replay, bounded loss, at-least-once", runChaosShardCrash},
	{"chaos_spikyclient", "Spiky client: a day of calls in 15 minutes", runChaosSpikyClient},
	{"chaos_submittercrash", "Submitter crash: flush-window loss, fast stateless restart", runChaosSubmitterCrash},
	{"chaos_zipfneighbor", "Noisy neighbor: shedding confines the damage", runChaosZipfNeighbor},
	{"criticality", "Criticality priority under scarcity", runCriticality},
	{"drill_evacuation", "Evacuation drill: staged drain, migration, RTO", runDrillEvacuation},
	{"extension-oppfrac", "Opportunistic-fraction sweep (paper §8)", runOppFracSweep},
	{"fig10", "Worker memory stability under load", runFig10},
	{"fig11", "Reserved vs opportunistic CPU cycles", runFig11},
	{"fig12", "Restarting a runtime with and without cooperative JIT", runFig12},
	{"fig13", "Back-pressure during the WTCache incident", runFig13},
	{"fig14", "Slow start tames a surging function", runFig14},
	{"fig2", "Received vs executed calls per minute", runFig2},
	{"fig3", "Growing popularity of FaaS in the private cloud", runFig3},
	{"fig4", "Spiky function: received vs executed", runFig4},
	{"fig5", "Capacity of worker pools across regions", runFig5},
	{"fig7", "Worker CPU utilization across regions", runFig7},
	{"fig8", "Scheduling delay: reserved vs opportunistic (reconstructed)", runFig8},
	{"fig9", "Distinct functions per worker per hour", runFig9},
	{"localitymem", "Locality groups vs none: worker memory", runLocalityMem},
	{"outage", "Region outage and recovery", runOutage},
	{"recovery_flushlag", "Crash-loss window vs journal flush lag", runRecoveryFlushLag},
	{"rim", "Proactive coordination via RIM", runRIM},
	{"table1", "Breakdown of functions by categories", runTable1},
	{"table2", "Examples of XFaaS workloads", runTable2},
	{"table3", "Percentiles of per-call resources by trigger", runTable3},
	{"teamskew", "Team-level capacity concentration", runTeamSkew},
}

// Run runs the experiment at s. Every run collects the platforms it
// builds; with Invariants set the sweep over them is appended to the
// result.
func (e *Experiment) Run(s Scale) *Result {
	r := &Result{ID: e.ID, Title: e.Title}
	var built []*core.Platform
	s.built = func(p *core.Platform) { built = append(built, p) }
	e.run(s, r)
	if s.Invariants {
		checkInvariants(r, built)
	}
	return r
}

// Chaos returns the scenario name `xfaas-sim -chaos` runs e under: the
// ID without its chaos_ or drill_ prefix. ok is false for the paper's
// figures and the other experiments, which only -run selects.
func (e *Experiment) Chaos() (name string, ok bool) {
	for _, prefix := range []string{"chaos_", "drill_"} {
		if name, ok = strings.CutPrefix(e.ID, prefix); ok {
			return name, true
		}
	}
	return "", false
}

// Get returns the experiment by id.
func Get(id string) (*Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// All returns every experiment sorted by id.
func All() []*Experiment { return slices.Clone(experiments) }
