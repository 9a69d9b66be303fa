package core

import (
	"testing"

	"xfaas/internal/workload"
)

// TestResilienceSwitchArmsEveryDefense: the one Resilience switch arms
// every defense on every shard, worker and scheduler replica, gives each
// region one shared hedge budget, makes an expired dispatch a violation
// and registers both amplification probes; off, it arms none of them.
func TestResilienceSwitchArmsEveryDefense(t *testing.T) {
	for _, on := range []bool{false, true} {
		p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
			c.Resilience.Enabled = on
			c.Invariants.Enabled = true
			c.SchedulersPerRegion = 2
		})
		for _, reg := range p.Regions() {
			for _, sh := range reg.Shards {
				if sh.BudgetEnabled != on || sh.SweepExpired != on {
					t.Errorf("on=%v: shard %v budget=%v sweep=%v", on, sh.ID, sh.BudgetEnabled, sh.SweepExpired)
				}
			}
			for _, w := range reg.Workers {
				if w.DeadlineRetryCut != on {
					t.Errorf("on=%v: worker %v deadline retry cut=%v", on, w.ID, w.DeadlineRetryCut)
				}
			}
			for _, sc := range reg.Scheds {
				if sc.ShedEnabled != on || sc.SweepExpired != on {
					t.Errorf("on=%v: region %d scheduler shed=%v sweep=%v", on, reg.ID, sc.ShedEnabled, sc.SweepExpired)
				}
				if (sc.HedgeBudget != nil) != on || sc.HedgeBudget != reg.Sched.HedgeBudget {
					t.Errorf("on=%v: region %d replicas do not share one hedge budget iff on", on, reg.ID)
				}
			}
		}
		if p.Inv.ExpiryDispatchCheck != on {
			t.Errorf("on=%v: expiry dispatch check=%v", on, p.Inv.ExpiryDispatchCheck)
		}
		// Overspend both budgets: a probe reports it iff it is registered.
		reg := p.Regions()[0]
		reg.Shards[0].BudgetSpent.Add(1e9)
		if hb := reg.Sched.HedgeBudget; hb != nil {
			hb.Spent.Add(1e9)
		}
		for _, probe := range []string{"retry-amplification", "hedge-amplification"} {
			if got := violationNamed(p, probe, "exceeds bound"); got != on {
				t.Errorf("on=%v: %s probe reported an overspent budget: %v", on, probe, got)
			}
		}
	}
}

// TestObserveSwitchBuildsAccountingAndSLO: the one Observe switch builds
// both the core-second accountant (with a meter on every worker) and the
// SLO engine; off, neither exists.
func TestObserveSwitchBuildsAccountingAndSLO(t *testing.T) {
	for _, on := range []bool{false, true} {
		p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
			c.Observe.Enabled = on
		})
		if (p.Acct != nil) != on || (p.SLO != nil) != on {
			t.Errorf("on=%v: accountant=%v SLO engine=%v", on, p.Acct != nil, p.SLO != nil)
		}
		for _, reg := range p.Regions() {
			for _, w := range reg.Workers {
				if (w.Acct != nil) != on {
					t.Errorf("on=%v: worker %v meter=%v", on, w.ID, w.Acct != nil)
				}
			}
		}
	}
}
