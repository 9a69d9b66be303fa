package invariant

import (
	"fmt"
	"testing"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// The cost model these tests pin: one evaluation costs O(functions +
// regions) whatever the backlog. In-flight counts are kept at the
// transitions that open and retire entries, so no snapshot method visits
// the in-flight population.

// backlogged returns a checker holding inflight queued calls over 192
// functions and 3 regions, with a probe that reads every snapshot the
// platform's conservation probe reads.
func backlogged(inflight int) *Checker {
	k := NewChecker(sim.NewEngine(), Params{Enabled: true}, 3)
	specs := make([]*function.Spec, 192)
	for i := range specs {
		specs[i] = &function.Spec{Name: fmt.Sprintf("fn-%03d", i)}
	}
	for i := 0; i < inflight; i++ {
		c := call(uint64(i+1), "", i%3)
		c.Spec = specs[i%len(specs)]
		k.OnSubmit(c)
		k.OnEnqueue(c)
	}
	k.RegisterProbe("conservation", func(sim.Time) []string {
		var out []string
		check := func(name string, t Tally) {
			if t.Gap() != 0 {
				out = append(out, name)
			}
		}
		check("total", k.Totals())
		k.EachFunc(check)
		k.EachRegion(func(r int, t Tally) { check(fmt.Sprint(r), t) })
		return out
	})
	return k
}

func TestEvaluationCostIgnoresBacklog(t *testing.T) {
	var allocs [2]float64
	for i, inflight := range [...]int{1_000, 100_000} {
		k := backlogged(inflight)
		allocs[i] = testing.AllocsPerRun(200, func() { k.evaluate(0) })
		if tot := k.Totals(); tot.InFlight != inflight || k.TotalViolations() != 0 {
			t.Fatalf("%d in flight: totals %+v, violations %v", inflight, tot, k.Violations())
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("an evaluation allocates %.0f times at 1k in flight and %.0f at 100k, want the same", allocs[0], allocs[1])
	}
}

func BenchmarkEvaluate(b *testing.B) {
	for _, inflight := range [...]int{1_000, 100_000} {
		b.Run(fmt.Sprintf("inflight=%dk", inflight/1000), func(b *testing.B) {
			k := backlogged(inflight)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.evaluate(0)
			}
		})
	}
}
