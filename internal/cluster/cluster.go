// Package cluster models the datacenter topology XFaaS runs on: tens of
// regions with wildly uneven worker-pool capacity (paper Figure 5), where
// intra-region communication is cheap and cross-region communication is
// roughly 100-1000x slower (paper §2.3).
package cluster

import (
	"fmt"
	"sort"
	"time"

	"xfaas/internal/rng"
)

// RegionID identifies a datacenter region.
type RegionID int

// Region describes one datacenter region.
type Region struct {
	ID   RegionID
	Name string
	// Workers is the worker-pool size of this region (per namespace; the
	// simulation uses a single namespace per platform instance).
	Workers int
	// DurableQShards is the number of DurableQ shards hosted here,
	// proportional to local storage capacity.
	DurableQShards int
	// Coord is an abstract 1-D position used to derive inter-region
	// distances; nearby coordinates mean nearby regions.
	Coord float64
}

// Topology is an immutable set of regions plus a distance model.
type Topology struct {
	regions []Region
	// intraLatency is the one-way network latency within a region.
	intraLatency time.Duration
	// crossLatencyPerUnit scales |coordA - coordB| into latency.
	crossLatencyPerUnit time.Duration
}

// Config controls synthetic topology generation.
type Config struct {
	Regions int
	// TotalWorkers across all regions; split unevenly (lognormal weights)
	// to match Figure 5's skew.
	TotalWorkers int
}

const (
	// capacitySkew is the lognormal sigma of the regions' capacity weights.
	capacitySkew float64 = 0.8
	// shardsPerRegionMin guarantees each region has at least this many
	// DurableQ shards.
	shardsPerRegionMin int = 2
	// intraLatency and crossLatencyPerUnit parameterize the generated
	// latency model: paper-plausible 0.1ms within a region, ~10-100ms
	// across regions.
	intraLatency        time.Duration = 100 * time.Microsecond
	crossLatencyPerUnit time.Duration = 15 * time.Millisecond
)

// DefaultConfig mirrors the paper's setting at simulation scale: 12
// regions (Figure 7 shows 12), skewed capacities.
func DefaultConfig() Config {
	return Config{Regions: 12, TotalWorkers: 1200}
}

// Validate rejects a topology Generate cannot build: every region needs
// at least one worker.
func (cfg Config) Validate() error {
	if cfg.Regions < 1 || cfg.TotalWorkers < cfg.Regions {
		return fmt.Errorf("cluster: want regions >= 1 and workers >= regions, have %d regions and %d workers",
			cfg.Regions, cfg.TotalWorkers)
	}
	return nil
}

// Generate builds a synthetic topology with unevenly distributed capacity.
// It panics on a config Validate rejects.
func Generate(cfg Config, src *rng.Source) *Topology {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	weights := make([]float64, cfg.Regions)
	total := 0.0
	for i := range weights {
		weights[i] = src.LogNormal(0, capacitySkew)
		total += weights[i]
	}
	regions := make([]Region, cfg.Regions)
	assigned := 0
	for i := range regions {
		w := int(float64(cfg.TotalWorkers) * weights[i] / total)
		w = max(w, 1)
		regions[i] = Region{
			ID:             RegionID(i),
			Name:           fmt.Sprintf("region-%02d", i),
			Workers:        w,
			DurableQShards: shardsPerRegionMin + w/64,
			Coord:          float64(i) + src.Range(-0.2, 0.2),
		}
		assigned += w
	}
	// Distribute rounding remainder to the largest region.
	if rem := cfg.TotalWorkers - assigned; rem > 0 {
		largest := 0
		for i, r := range regions {
			if r.Workers > regions[largest].Workers {
				largest = i
			}
		}
		regions[largest].Workers += rem
	}
	return &Topology{
		regions:             regions,
		intraLatency:        intraLatency,
		crossLatencyPerUnit: crossLatencyPerUnit,
	}
}

// NewTopology builds a topology from explicit regions (for tests).
func NewTopology(regions []Region, intra, crossPerUnit time.Duration) *Topology {
	cp := append([]Region(nil), regions...)
	return &Topology{regions: cp, intraLatency: intra, crossLatencyPerUnit: crossPerUnit}
}

// Subset returns a renumbered topology containing only the given regions
// (in the given order). Coordinates are preserved, so latencies between
// two retained regions equal their latencies in the parent topology —
// which is what lets a partitioned simulation derive fabric lookaheads
// from the parent's latency model. Names are preserved too, so reports
// keep the global region names.
func (t *Topology) Subset(ids []RegionID) *Topology {
	if len(ids) == 0 {
		panic("cluster: Subset of no regions")
	}
	regs := make([]Region, len(ids))
	for i, id := range ids {
		r := t.regions[id]
		r.ID = RegionID(i)
		regs[i] = r
	}
	return &Topology{
		regions:             regs,
		intraLatency:        t.intraLatency,
		crossLatencyPerUnit: t.crossLatencyPerUnit,
	}
}

// Regions returns the regions (callers must not mutate).
func (t *Topology) Regions() []Region { return t.regions }

// NumRegions returns the region count.
func (t *Topology) NumRegions() int { return len(t.regions) }

// Region returns region metadata by id.
func (t *Topology) Region(id RegionID) Region { return t.regions[id] }

// TotalWorkers returns the summed worker-pool capacity.
func (t *Topology) TotalWorkers() int {
	n := 0
	for _, r := range t.regions {
		n += r.Workers
	}
	return n
}

// Latency returns the one-way network latency between two regions.
func (t *Topology) Latency(a, b RegionID) time.Duration {
	if a == b {
		return t.intraLatency
	}
	d := t.regions[a].Coord - t.regions[b].Coord
	if d < 0 {
		d = -d
	}
	return t.intraLatency + time.Duration(float64(t.crossLatencyPerUnit)*d)
}

// Distance returns the abstract distance between two regions (0 for the
// same region).
func (t *Topology) Distance(a, b RegionID) float64 {
	d := t.regions[a].Coord - t.regions[b].Coord
	if d < 0 {
		d = -d
	}
	return d
}

// Nearest returns all regions ordered by distance from the given region
// (the region itself first). Used by the GTC's waterfall to shed load to
// nearby regions first.
func (t *Topology) Nearest(from RegionID) []RegionID {
	ids := make([]RegionID, len(t.regions))
	for i := range ids {
		ids[i] = RegionID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := t.Distance(from, ids[i]), t.Distance(from, ids[j])
		if di != dj {
			return di < dj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// CapacityShare returns each region's fraction of total worker capacity.
func (t *Topology) CapacityShare() []float64 {
	total := float64(t.TotalWorkers())
	out := make([]float64, len(t.regions))
	for i, r := range t.regions {
		out[i] = float64(r.Workers) / total
	}
	return out
}
