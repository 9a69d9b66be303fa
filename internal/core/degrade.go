package core

import (
	"fmt"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// This file is the platform's graceful-degradation layer (paper §4.1 +
// §4.4): when detected worker capacity is lost, the platform sheds
// opportunistic and low-criticality traffic before it delays critical
// traffic, and a per-region circuit breaker stops a badly degraded
// region's schedulers from pulling work that healthier regions should
// execute. Everything keys off the heartbeat-detected health view — the
// degradation controller has no out-of-band knowledge of failures.

const (
	// DegradeInterval is the degradation controller's evaluation cadence.
	DegradeInterval time.Duration = 15 * time.Second
	// BreakerMinHealthyFrac is the per-region detected-healthy fraction
	// below which the region's circuit breaker opens: its schedulers stop
	// pulling and evacuate held leases so other regions execute the work.
	BreakerMinHealthyFrac float64 = 0.25
	// breakerCooldown is how long an open breaker waits before
	// half-opening to re-test the region's health.
	breakerCooldown time.Duration = 2 * time.Minute
	// ShedHealthyFrac is the fleet-wide detected-healthy worker fraction
	// below which opportunistic traffic is shed (scaled down towards
	// zero) so lost capacity delays deferrable work, not critical work.
	ShedHealthyFrac float64 = 0.85
)

// breakerState is a region circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string { return [...]string{"closed", "open", "half-open"}[s] }

type breaker struct {
	state    breakerState
	openedAt sim.Time
}

func (b *breaker) isOpen() bool { return b.state == breakerOpen }

// SetRegionPartitioned severs (or heals) a region's cross-region links:
// schedulers on either side of the cut stop pulling across it and the GTC
// stops seeing the region. Intra-region traffic is unaffected.
func (p *Platform) SetRegionPartitioned(id cluster.RegionID, partitioned bool) {
	p.partitioned[id] = partitioned
}

// Reachable reports whether region dst's DurableQs are reachable from
// region from: always within a region, and across regions only when
// neither side is partitioned.
func (p *Platform) Reachable(from, dst cluster.RegionID) bool {
	if from == dst {
		return true
	}
	return !p.partitioned[from] && !p.partitioned[dst]
}

// BreakerState returns the region's circuit-breaker position as a string
// ("closed", "open", "half-open").
func (p *Platform) BreakerState(id cluster.RegionID) string {
	return p.breakers[id].state.String()
}

// DetectedHealthyFrac returns the fleet-wide fraction of workers the
// heartbeat protocol currently believes healthy.
func (p *Platform) DetectedHealthyFrac() float64 {
	total, healthy := 0, 0
	for _, reg := range p.regions {
		total += len(reg.Workers)
		healthy += reg.LB.DetectedHealthy()
	}
	if total == 0 {
		return 1
	}
	return float64(healthy) / float64(total)
}

// degradeTick runs the degradation policy once: fleet-wide shedding and
// per-region breakers, both from the detected health view.
func (p *Platform) degradeTick() {
	frac := p.DetectedHealthyFrac()

	// Criticality-based load shedding. Above the threshold nothing is
	// shed; below it, opportunistic admission scales down linearly and
	// hits zero at half the threshold, past which low-criticality
	// reserved work is deferred too. Critical traffic is never shed.
	shed := 1.0
	minCrit := function.CritLow
	if frac < ShedHealthyFrac {
		floor := ShedHealthyFrac / 2
		shed = (frac - floor) / (ShedHealthyFrac - floor)
		if shed < 0 {
			shed = 0
		}
		if frac < floor {
			minCrit = function.CritNormal
		}
	}
	// Control events only on change: SetShed/SetMinCriticality run every
	// tick, but the event log should show transitions, not heartbeats.
	if shed != p.lastShed {
		p.Tracer.Control("degrade.shed", fmt.Sprintf("scale=%.3f healthy=%.3f", shed, frac))
		p.lastShed = shed
	}
	if minCrit != p.lastMinCrit {
		p.Tracer.Control("degrade.min-criticality", minCrit.String())
		p.lastMinCrit = minCrit
	}
	p.Central.SetShed(shed)
	p.Central.SetMinCriticality(minCrit)

	// Per-region circuit breakers.
	now := p.Engine.Now()
	for i, reg := range p.regions {
		rfrac := 1.0
		if n := len(reg.Workers); n > 0 {
			rfrac = float64(reg.LB.DetectedHealthy()) / float64(n)
		}
		b := &p.breakers[i]
		switch b.state {
		case breakerClosed:
			if rfrac < BreakerMinHealthyFrac {
				b.state = breakerOpen
				b.openedAt = now
				p.BreakerOpens.Inc()
				p.Tracer.Control("breaker.open", fmt.Sprintf("r%d healthy=%.3f", reg.ID, rfrac))
			}
		case breakerOpen:
			if now-b.openedAt >= breakerCooldown {
				b.state = breakerHalfOpen
				p.Tracer.Control("breaker.half-open", fmt.Sprintf("r%d", reg.ID))
			}
		case breakerHalfOpen:
			if rfrac >= BreakerMinHealthyFrac {
				b.state = breakerClosed
				p.Tracer.Control("breaker.closed", fmt.Sprintf("r%d", reg.ID))
			} else {
				b.state = breakerOpen
				b.openedAt = now
				p.BreakerOpens.Inc()
				p.Tracer.Control("breaker.open", fmt.Sprintf("r%d healthy=%.3f", reg.ID, rfrac))
			}
		}
	}
}
