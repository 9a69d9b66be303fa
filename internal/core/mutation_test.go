package core

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/trace"
	"xfaas/internal/workload"
)

// The probes are only as good as the emits that reach them, so they are
// tested against a spine that misbehaves exactly once on a seeded run: a
// probe that stays quiet when one transition is dropped or duplicated is
// not checking anything.

// mutationRig runs a seeded platform with the ledger on, verifies it is
// clean, parks the schedulers so fresh submissions pile up ready in the
// shards, and leases one of them by hand through the real spine.
func mutationRig(t *testing.T) (*Platform, *durableq.Shard, *function.Call) {
	t.Helper()
	p, _, _ := smallPlatform(t, func(c *Config, _ *workload.PopulationConfig) {
		c.Invariants.Enabled = true
	})
	p.Engine.RunFor(10 * time.Minute)
	if vs := p.Inv.Final(); len(vs) != 0 {
		t.Fatalf("rig is not clean before the mutation: %v", vs)
	}
	for _, reg := range p.Regions() {
		for _, sc := range reg.Scheds {
			sc.Crash()
		}
	}
	p.Engine.RunFor(time.Minute)
	for _, reg := range p.Regions() {
		for _, sh := range reg.Shards {
			if leased := sh.Poll(1, nil); len(leased) == 1 {
				return p, sh, leased[0]
			}
		}
	}
	t.Fatal("no ready call to lease after a minute of unscheduled submissions")
	return nil, nil, nil
}

func violationNamed(p *Platform, name, detail string) bool {
	for _, v := range p.Inv.Final() {
		if v.Name == name && strings.Contains(v.Detail, detail) {
			return true
		}
	}
	return false
}

// Dropping one KindAck leaves the shards one ack ahead of the ledger and
// the ledger holding a call no queue does: conservation must say so.
func TestConservationCatchesDroppedAck(t *testing.T) {
	p, sh, c := mutationRig(t)
	obs := sh.Obs
	sh.Obs = nil // the fake spine: swallows what it is given
	acked := sh.Ack(c.ID)
	sh.Obs = obs
	if !acked {
		t.Fatal("shard refused the ack")
	}
	if !violationNamed(p, "conservation", "acked") {
		t.Fatalf("dropped ack not caught; violations: %v", p.Inv.Violations())
	}
	if !violationNamed(p, "conservation", "in flight") {
		t.Fatalf("stranded ledger entry not caught; violations: %v", p.Inv.Violations())
	}
}

// Duplicating one KindDispatch is the same call starting on two workers
// under one lease: lease exclusivity must fire on the second, at once.
func TestLeaseExclusivityCatchesDuplicatedDispatch(t *testing.T) {
	p, _, c := mutationRig(t)
	reg := p.Regions()[0]
	var first, second int64 = -1, -1
	for i, w := range reg.Workers {
		if !reg.LB.InGroup(c.Spec, w) {
			continue // stay inside the locality group: isolate the one breach
		}
		if first < 0 {
			first = trace.Ref(reg.ID, i)
		} else if second < 0 {
			second = trace.Ref(reg.ID, i)
		}
	}
	if second < 0 {
		t.Fatal("locality group has fewer than two workers")
	}
	p.Obs.Emit(c, trace.KindDispatch, first)
	if n := p.Inv.TotalViolations(); n != 0 {
		t.Fatalf("a single dispatch of a leased call flagged: %v", p.Inv.Violations())
	}
	p.Obs.Emit(c, trace.KindDispatch, second)
	vs := p.Inv.Violations()
	if len(vs) != 1 || vs[0].Name != "lease-exclusivity" || vs[0].CallID != c.ID {
		t.Fatalf("duplicated dispatch not caught as lease-exclusivity: %v", vs)
	}
}
