package experiment

import (
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsQuick runs every experiment of the table at quick scale
// and requires every shape check to pass — this is the repository's
// "does the reproduction reproduce" gate.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.Run(QuickScale())
			if res.ID != e.ID {
				t.Fatalf("result id %q != experiment id %q", res.ID, e.ID)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}
			if t.Failed() {
				t.Log("\n" + res.Render(false))
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14",
		"localitymem", "teamskew", "criticality",
		"extension-oppfrac", "baseline-coldstart", "outage", "rim",
		"ablation-timeshift", "ablation-gtc", "ablation-aimd",
		"chaos_gray", "chaos_partition", "chaos_correlated", "chaos_dq",
		"chaos_graytail", "chaos_flapping", "drill_evacuation",
		"chaos_shardcrash", "chaos_submittercrash", "chaos_schedcrash", "recovery_flushlag",
		"chaos_retrystorm", "chaos_midnightspike", "chaos_spikyclient", "chaos_zipfneighbor",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not in the table", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("table has %d experiments, want %d", len(All()), len(want))
	}
}

func TestResultRender(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	r.row("metric", "1", "%d", 2)
	r.check("ok", true, "fine")
	r.check("bad", false, "broken")
	r.series("s", time.Minute, []float64{1, 2, 3})
	r.note("a note")
	out := r.Render(true)
	for _, want := range []string{"metric", "PASS", "FAIL", "a note", "s (per 1m0s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if r.ChecksOK() {
		t.Fatal("ChecksOK should be false with a failing check")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestIDsSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("ids not sorted/unique: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestResultMarkdown(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	r.row("a|b", "1", "%d", 2)
	r.check("good", true, "fine")
	r.check("bad", false, "broken")
	r.note("context")
	md := r.Markdown()
	for _, want := range []string{"### `x` — demo", "| a\\|b | 1 | 2 |", "✅ good", "❌ bad", "> context"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}
