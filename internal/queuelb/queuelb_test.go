package queuelb

import (
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

func topo3() *cluster.Topology {
	return cluster.NewTopology([]cluster.Region{
		{ID: 0, Coord: 0, Workers: 10, DurableQShards: 2},
		{ID: 1, Coord: 1, Workers: 10, DurableQShards: 6},
		{ID: 2, Coord: 2, Workers: 10, DurableQShards: 2},
	}, time.Millisecond, 10*time.Millisecond)
}

func shardsFor(e *sim.Engine, topo *cluster.Topology) [][]*durableq.Shard {
	out := make([][]*durableq.Shard, topo.NumRegions())
	for i, r := range topo.Regions() {
		for k := 0; k < r.DurableQShards; k++ {
			out[i] = append(out[i], durableq.NewShard(durableq.ShardID{Region: r.ID, Index: k}, e, nil))
		}
	}
	return out
}

func qlbSpec() *function.Spec {
	return &function.Spec{Name: "f", Namespace: "ns", Deadline: time.Hour, Retry: function.DefaultRetry}
}

// Validate reports whether the policy is row-stochastic over n regions.
func (p RoutingPolicy) Validate(n int) bool {
	if len(p) != n {
		return false
	}
	for _, row := range p {
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				return false
			}
			sum += v
		}
		if len(row) != n || sum < 0.999999 || sum > 1.000001 {
			return false
		}
	}
	return true
}

func TestLocalFirstPolicyRowStochastic(t *testing.T) {
	topo := topo3()
	for _, frac := range []float64{0, 0.5, 0.9, 1} {
		p := LocalFirstPolicy(topo, frac)
		if !p.Validate(3) {
			t.Fatalf("policy with frac=%v not row-stochastic: %v", frac, p)
		}
		if p[0][0] != frac && frac != 1 {
			t.Fatalf("local weight = %v, want %v", p[0][0], frac)
		}
	}
}

func TestLocalFirstPolicyWeightsByShards(t *testing.T) {
	p := LocalFirstPolicy(topo3(), 0.5)
	// Region 1 has 6 of region 0's 8 "other" shards.
	if p[0][1] <= p[0][2] {
		t.Fatalf("bigger shard pool did not get more weight: %v", p[0])
	}
}

func TestSingleRegionPolicy(t *testing.T) {
	topo := cluster.NewTopology([]cluster.Region{{ID: 0, Workers: 1, DurableQShards: 1}}, time.Millisecond, time.Millisecond)
	p := LocalFirstPolicy(topo, 0.5)
	if p[0][0] != 1 {
		t.Fatalf("single region must route local: %v", p)
	}
}

func TestRouteHonorsPolicy(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 0.5))
	lb := New(0, rng.New(1), shards, store)
	var id uint64
	for i := 0; i < 2000; i++ {
		id++
		lb.Route(&function.Call{ID: id, Spec: qlbSpec()})
	}
	local := 0
	for _, sh := range shards[0] {
		local += sh.Pending()
	}
	frac := float64(local) / 2000
	if frac < 0.42 || frac > 0.58 {
		t.Fatalf("local fraction = %v, want ≈0.5", frac)
	}
	if lb.CrossRegion.Value() == 0 {
		t.Fatal("no cross-region routing with 0.5 policy")
	}
}

func TestRouteDefaultsLocalWithoutPolicy(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e) // no policy written
	lb := New(1, rng.New(2), shards, store)
	var id uint64
	for i := 0; i < 100; i++ {
		id++
		lb.Route(&function.Call{ID: id, Spec: qlbSpec()})
	}
	local := 0
	for _, sh := range shards[1] {
		local += sh.Pending()
	}
	if local != 100 {
		t.Fatalf("without policy %d/100 stayed local", local)
	}
}

func TestRouteSpreadsAcrossShards(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 1))
	lb := New(1, rng.New(3), shards, store)
	var id uint64
	for i := 0; i < 6000; i++ {
		id++
		lb.Route(&function.Call{ID: id, Spec: qlbSpec()})
	}
	for k, sh := range shards[1] {
		if sh.Pending() < 700 || sh.Pending() > 1300 {
			t.Fatalf("shard %d got %d of 6000 across 6 shards", k, sh.Pending())
		}
	}
}

// Property: LocalFirstPolicy is always row-stochastic for generated
// topologies and fractions.
func TestPolicyStochasticProperty(t *testing.T) {
	f := func(seed uint64, fracRaw uint8) bool {
		topo := cluster.Generate(cluster.DefaultConfig(), rng.New(seed))
		frac := float64(fracRaw%101) / 100
		return LocalFirstPolicy(topo, frac).Validate(topo.NumRegions())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteFailsOverFromDownShards(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 1)) // all-local policy
	lb := New(0, rng.New(4), shards, store)
	for _, sh := range shards[0] {
		sh.SetDown(true)
	}
	var id uint64
	for i := 0; i < 50; i++ {
		id++
		sh := lb.Route(&function.Call{ID: id, Spec: qlbSpec()})
		if sh == nil {
			t.Fatal("route failed with healthy shards in other regions")
		}
		if sh.ID.Region == 0 {
			t.Fatal("routed to a down shard's region")
		}
	}
	if lb.Unroutable.Value() != 0 {
		t.Fatalf("unroutable = %v", lb.Unroutable.Value())
	}
	if lb.CrossRegion.Value() != 50 {
		t.Fatalf("cross-region = %v, want all 50 failed over", lb.CrossRegion.Value())
	}
}

func TestRoutePartialShardOutageStaysLocal(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 1))
	lb := New(1, rng.New(5), shards, store)
	// 5 of region 1's 6 shards go down; the survivor absorbs everything.
	for _, sh := range shards[1][:5] {
		sh.SetDown(true)
	}
	var id uint64
	for i := 0; i < 40; i++ {
		id++
		if sh := lb.Route(&function.Call{ID: id, Spec: qlbSpec()}); sh != shards[1][5] {
			t.Fatalf("route %d landed on %v, want the surviving local shard", i, sh.ID)
		}
	}
	if lb.CrossRegion.Value() != 0 {
		t.Fatalf("cross-region = %v with a local shard still up", lb.CrossRegion.Value())
	}
}

func TestRouteUnroutableWhenEverythingDown(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 0.5))
	lb := New(0, rng.New(6), shards, store)
	for _, pool := range shards {
		for _, sh := range pool {
			sh.SetDown(true)
		}
	}
	if sh := lb.Route(&function.Call{ID: 1, Spec: qlbSpec()}); sh != nil {
		t.Fatalf("route succeeded during a total outage: %v", sh.ID)
	}
	if lb.Unroutable.Value() != 1 || lb.Routed.Value() != 0 {
		t.Fatalf("unroutable=%v routed=%v", lb.Unroutable.Value(), lb.Routed.Value())
	}
	// Recovery: one shard anywhere is enough again.
	shards[2][0].SetDown(false)
	if sh := lb.Route(&function.Call{ID: 2, Spec: qlbSpec()}); sh != shards[2][0] {
		t.Fatal("route did not find the recovered shard")
	}
}

// TestRouteOKWithoutRemoteMatchesRoute pins the RNG-draw parity contract:
// with no Remote hook, RouteOK must make exactly the draws Route makes,
// so wiring submitters through RouteOK changed no seeded output.
func TestRouteOKWithoutRemoteMatchesRoute(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 0.5))

	shardsA := shardsFor(e, topo)
	lbA := New(0, rng.New(42), shardsA, store)
	shardsB := shardsFor(e, topo)
	lbB := New(0, rng.New(42), shardsB, store)

	var id uint64
	for i := 0; i < 500; i++ {
		id++
		a := lbA.Route(&function.Call{ID: id, Spec: qlbSpec()})
		ok := lbB.RouteOK(&function.Call{ID: id, Spec: qlbSpec()})
		if (a != nil) != ok {
			t.Fatalf("call %d: Route=%v RouteOK=%v", id, a != nil, ok)
		}
	}
	for r := range shardsA {
		for k := range shardsA[r] {
			if shardsA[r][k].Pending() != shardsB[r][k].Pending() {
				t.Fatalf("shard r%d/%d: Route stream %d pending, RouteOK stream %d",
					r, k, shardsA[r][k].Pending(), shardsB[r][k].Pending())
			}
		}
	}
}

// TestRouteOKRemoteFraction checks the fabric hook sees about RemoteFrac
// of traffic, that forwarded calls bypass local routing entirely, and
// that the rest still lands in shards.
func TestRouteOKRemoteFraction(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 1))
	lb := New(0, rng.New(5), shards, store)
	lb.RemoteFrac = 0.3
	taken := 0
	lb.Remote = func(c *function.Call) bool {
		taken++
		return true
	}
	var id uint64
	const n = 4000
	for i := 0; i < n; i++ {
		id++
		if !lb.RouteOK(&function.Call{ID: id, Spec: qlbSpec()}) {
			t.Fatalf("call %d found no home", id)
		}
	}
	frac := float64(taken) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("remote fraction %v, want ≈0.3", frac)
	}
	if int(lb.RemoteForwarded.Value()) != taken {
		t.Fatalf("RemoteForwarded=%v, hook took %d", lb.RemoteForwarded.Value(), taken)
	}
	local := 0
	for r := range shards {
		for _, sh := range shards[r] {
			local += sh.Pending()
		}
	}
	if local != n-taken {
		t.Fatalf("%d locally persisted + %d forwarded != %d submitted", local, taken, n)
	}
}

// TestRouteOKRemoteDeclineFallsThrough checks a declining Remote hook
// leaves the call on the normal local path.
func TestRouteOKRemoteDeclineFallsThrough(t *testing.T) {
	e := sim.NewEngine()
	topo := topo3()
	shards := shardsFor(e, topo)
	store := config.NewStore(e)
	store.Set(PolicyKey, LocalFirstPolicy(topo, 1))
	lb := New(0, rng.New(6), shards, store)
	lb.RemoteFrac = 1 // every call offered
	lb.Remote = func(c *function.Call) bool { return false }
	var id uint64
	for i := 0; i < 200; i++ {
		id++
		if !lb.RouteOK(&function.Call{ID: id, Spec: qlbSpec()}) {
			t.Fatalf("declined call %d found no home", id)
		}
	}
	if lb.RemoteForwarded.Value() != 0 {
		t.Fatal("declined handoffs counted as forwarded")
	}
	local := 0
	for _, sh := range shards[0] {
		local += sh.Pending()
	}
	if local != 200 {
		t.Fatalf("%d/200 declined calls persisted locally", local)
	}
}
