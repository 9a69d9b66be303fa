package core

import (
	"testing"
	"time"

	"xfaas/internal/workload"
)

// drainPlatform builds a 3-region platform with resilience defenses on.
func drainPlatform(t *testing.T) (*Platform, *workload.Generator) {
	p, gen, _ := smallPlatform(t, func(cfg *Config, pcfg *workload.PopulationConfig) {
		cfg.Resilience = cfg.Resilience.EnableAll()
		pcfg.FutureStartFrac = 0.1 // durable backlog for the migration stage
	})
	return p, gen
}

func TestDrainQuiescesAndReportsRTO(t *testing.T) {
	p, _ := drainPlatform(t)
	p.Engine.RunFor(20 * time.Minute)

	// The default population's execution-time tail reaches tens of
	// minutes, so the drain outlives its 10-minute QuiesceTimeout (the
	// controller alarms but keeps polling) before quieting.
	p.Drainer.Drain(0)
	p.Engine.RunFor(45 * time.Minute)

	if !p.Drainer.Quiesced(0) {
		reg := p.Region(0)
		inflight, running := 0, 0
		for _, sc := range reg.Scheds {
			inflight += sc.InFlight()
		}
		for _, w := range reg.Workers {
			running += w.Running()
		}
		t.Fatalf("region 0 did not quiesce: inflight=%d running=%d", inflight, running)
	}
	rto, ok := p.Drainer.LastRTO(0)
	if !ok || rto <= 0 || rto > 45*time.Minute {
		t.Fatalf("rto = %v ok=%v, want a positive duration within the drain window", rto, ok)
	}

	// The drained region stops acking; the fleet keeps serving.
	ackedBefore := p.Acked()
	p.Engine.RunFor(5 * time.Minute)
	if p.Acked() <= ackedBefore {
		t.Fatal("fleet stopped acking during the drain")
	}

	// Zero loss: nothing crashed, so nothing may be lost. (Deadline
	// expiry may legitimately dead-letter delayed work on the
	// capacity-reduced fleet; that is disposition, not loss.)
	for _, reg := range p.Regions() {
		for _, sh := range reg.Shards {
			if sh.LostOnCrash.Value() != 0 {
				t.Fatalf("shard %v lost %v calls during a graceful drain",
					sh.ID, sh.LostOnCrash.Value())
			}
		}
	}
}

func TestDrainMigratesCritHighAndUndrainResumes(t *testing.T) {
	p, _ := drainPlatform(t)
	p.Engine.RunFor(30 * time.Minute)

	p.Drainer.Drain(0)
	p.Engine.RunFor(10 * time.Minute)
	if got := p.Drainer.MigratedCalls(0); got == 0 {
		pending := 0
		for _, sh := range p.Region(0).Shards {
			pending += sh.Pending()
		}
		t.Fatalf("no CritHigh calls migrated (region 0 still holds %d pending)", pending)
	}

	var r0Acked float64
	for _, sc := range p.Region(0).Scheds {
		r0Acked += sc.Acked.Value()
	}
	p.Drainer.Undrain(0)
	p.Engine.RunFor(10 * time.Minute)
	var r0After float64
	for _, sc := range p.Region(0).Scheds {
		r0After += sc.Acked.Value()
	}
	if r0After <= r0Acked {
		t.Fatalf("region 0 did not resume acking after undrain (%v -> %v)", r0Acked, r0After)
	}
	if p.Drainer.Draining(0) {
		t.Fatal("region still marked draining after Undrain")
	}
}
