// Package queuelb implements the QueueLB (paper §4.3): it receives
// function calls from submitters and selects a DurableQ shard to persist
// each call. A routing policy delivered through the configuration
// management system specifies the traffic split per
// (source-region, destination-region) pair, balancing load across the
// unevenly provisioned DurableQ pools; within a region the shard is chosen
// uniformly (the paper shards by random UUID).
package queuelb

import (
	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/rng"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

// RoutingPolicy is a row-stochastic matrix: Policy[src][dst] is the
// fraction of region src's submissions persisted in region dst.
type RoutingPolicy [][]float64

// PolicyKey is the config-store key QueueLBs subscribe to.
const PolicyKey = "queuelb/routing-policy"

// LocalFirstPolicy keeps localFrac of each region's submissions in-region
// and spreads the remainder across other regions proportionally to their
// DurableQ shard capacity.
func LocalFirstPolicy(topo *cluster.Topology, localFrac float64) RoutingPolicy {
	if localFrac < 0 || localFrac > 1 {
		panic("queuelb: localFrac out of [0,1]")
	}
	n := topo.NumRegions()
	p := make(RoutingPolicy, n)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		otherShards := 0
		for j, r := range topo.Regions() {
			if j != i {
				otherShards += r.DurableQShards
			}
		}
		if n == 1 || otherShards == 0 {
			p[i][i] = 1
			continue
		}
		p[i][i] = localFrac
		for j, r := range topo.Regions() {
			if j != i {
				p[i][j] = (1 - localFrac) * float64(r.DurableQShards) / float64(otherShards)
			}
		}
	}
	return p
}

// LB is one region's queue load balancer.
type LB struct {
	region cluster.RegionID
	src    *rng.Source
	shards [][]*durableq.Shard // indexed by region
	cache  *config.Cache

	// Drained, when set, reports whether a region is under an evacuation
	// drill: pickShard refuses it, so the normal fallback chain (policy
	// destination → local → index order) reroutes new submissions to peer
	// regions — "stop admitting" without failing a single client. Nil
	// means no region drains.
	Drained func(region int) bool

	Routed      stats.Counter
	CrossRegion stats.Counter
	// Unroutable counts submissions dropped because no shard anywhere was
	// available (total durable-queue outage).
	Unroutable stats.Counter
	// Obs, when set, hears routing decisions.
	Obs *lifecycle.Spine

	// Remote, when set, may hand a call off to another platform partition
	// over the parallel-simulation fabric instead of persisting it here.
	// RouteOK consults it for RemoteFrac of submissions; returning true
	// means the callback took ownership of the call, false falls through
	// to normal local routing. When Remote is nil (every single-platform
	// run) RouteOK makes exactly the same RNG draws as Route, so legacy
	// seed-keyed outputs are unchanged.
	Remote     func(*function.Call) bool
	RemoteFrac float64
	// RemoteForwarded counts calls handed to another partition.
	RemoteForwarded stats.Counter
}

// New returns a QueueLB for region, routing over the per-region shard
// pools, with the routing policy subscribed from store.
func New(region cluster.RegionID, src *rng.Source, shards [][]*durableq.Shard, store *config.Store) *LB {
	return &LB{
		region: region,
		src:    src,
		shards: shards,
		cache:  config.NewCache(store, PolicyKey),
	}
}

func (lb *LB) policyRow() []float64 {
	v, ok := lb.cache.Get()
	if !ok {
		return nil
	}
	p, ok := v.(RoutingPolicy)
	if !ok || int(lb.region) >= len(p) {
		return nil
	}
	return p[lb.region]
}

// pickRegion samples a destination region from the policy row, falling
// back to the local region with no policy.
func (lb *LB) pickRegion() cluster.RegionID {
	row := lb.policyRow()
	if row == nil {
		return lb.region
	}
	u := lb.src.Float64()
	acc := 0.0
	for j, w := range row {
		acc += w
		if u < acc {
			return cluster.RegionID(j)
		}
	}
	return lb.region
}

// RouteOK routes the call like Route, but first gives the Remote fabric
// hook (when configured) a RemoteFrac chance to hand the call to another
// platform partition. It reports whether the call found a home — locally
// persisted or handed off.
func (lb *LB) RouteOK(c *function.Call) bool {
	if lb.Remote != nil && lb.RemoteFrac > 0 && lb.src.Float64() < lb.RemoteFrac {
		if lb.Remote(c) {
			lb.RemoteForwarded.Inc()
			return true
		}
	}
	return lb.Route(c) != nil
}

// Route persists the call into a DurableQ shard chosen per policy,
// routing around shards in an unavailability window, and returns the
// shard. It returns nil only when every shard everywhere is down (the
// submitter reports the submission failure to the client).
func (lb *LB) Route(c *function.Call) *durableq.Shard {
	dst := lb.pickRegion()
	if shard := lb.pickShard(dst); shard != nil {
		lb.finishRoute(c, shard, dst)
		return shard
	}
	// The policy's destination has no usable shard: fail over to the
	// local region, then to every region in index order.
	if shard := lb.pickShard(lb.region); shard != nil {
		lb.finishRoute(c, shard, lb.region)
		return shard
	}
	for j := range lb.shards {
		if shard := lb.pickShard(cluster.RegionID(j)); shard != nil {
			lb.finishRoute(c, shard, cluster.RegionID(j))
			return shard
		}
	}
	lb.Unroutable.Inc()
	return nil
}

// pickShard chooses uniformly among the region's available shards (nil if
// the region has none up). Two passes — count, then walk to the k-th up
// shard — make exactly the same single Intn draw as collecting the up
// shards into a slice would, without allocating one per routed call.
func (lb *LB) pickShard(region cluster.RegionID) *durableq.Shard {
	if int(region) >= len(lb.shards) {
		return nil
	}
	if lb.Drained != nil && lb.Drained(int(region)) {
		return nil
	}
	pool := lb.shards[region]
	up := 0
	for _, sh := range pool {
		if !sh.IsDown() {
			up++
		}
	}
	if up == 0 {
		return nil
	}
	k := lb.src.Intn(up)
	for _, sh := range pool {
		if sh.IsDown() {
			continue
		}
		if k == 0 {
			return sh
		}
		k--
	}
	return nil
}

func (lb *LB) finishRoute(c *function.Call, shard *durableq.Shard, dst cluster.RegionID) {
	lb.Obs.Emit(c, trace.KindRoute, int64(dst))
	shard.Enqueue(c)
	lb.Routed.Inc()
	if dst != lb.region {
		lb.CrossRegion.Inc()
	}
}
