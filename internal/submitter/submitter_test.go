package submitter

import (
	"errors"
	"slices"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/config"
	"xfaas/internal/durableq"
	"xfaas/internal/function"
	"xfaas/internal/queuelb"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

// fixture is one submitter over a QueueLB and a single shard. It plays
// the owner's part: a ticker calls Flush every FlushInterval, as a
// platform's flush grid does.
type fixture struct {
	engine *sim.Engine
	shard  *durableq.Shard
	sub    *Submitter
	idSeq  uint64
}

func newFixture(pool Pool, params Params) *fixture {
	f := &fixture{engine: sim.NewEngine()}
	f.shard = durableq.NewShard(durableq.ShardID{}, f.engine, nil)
	topoShards := [][]*durableq.Shard{{f.shard}}
	cstore := config.NewStore(f.engine)
	qlb := queuelb.New(0, rng.New(1), topoShards, cstore)
	f.sub = New(f.engine, cluster.RegionID(0), pool, params, qlb, nil, rng.New(2), &f.idSeq)
	f.engine.Every(FlushInterval, f.sub.Flush)
	return f
}

func subSpec() *function.Spec {
	return &function.Spec{Name: "f", Namespace: "ns", Deadline: time.Minute, Retry: function.DefaultRetry}
}

func TestSubmitStampsAndEnqueues(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	c := &function.Call{Spec: subSpec()}
	if err := f.sub.Submit("client-a", c); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if c.ID == 0 {
		t.Fatal("no ID assigned")
	}
	if c.Deadline != c.StartAfter+time.Minute {
		t.Fatalf("deadline = %v", c.Deadline)
	}
	// Batched: not yet durable.
	if f.shard.Pending() != 0 {
		t.Fatal("call flushed before batch/interval")
	}
	f.engine.RunFor(time.Second)
	if f.shard.Pending() != 1 {
		t.Fatal("flush interval did not write the batch")
	}
}

func TestBatchSizeFlush(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	for i := 0; i < batchSize; i++ {
		f.sub.Submit("c", &function.Call{Spec: subSpec()})
	}
	if f.shard.Pending() != batchSize {
		t.Fatalf("pending = %d, want batch flushed at size %d", f.shard.Pending(), batchSize)
	}
	if f.sub.Batches.Value() != 1 {
		t.Fatalf("batches = %v", f.sub.Batches.Value())
	}
}

func TestNormalPoolThrottlesSpikyClient(t *testing.T) {
	p := DefaultParams()
	p.NormalClientRPS = 10
	p.NormalClientBurst = 20
	f := newFixture(PoolNormal, p)
	var throttled int
	for i := 0; i < 1000; i++ { // a burst far above the client policy
		err := f.sub.Submit("spiky-client", &function.Call{Spec: subSpec()})
		if errors.Is(err, ErrThrottled) {
			throttled++
		}
	}
	if throttled != 980 {
		t.Fatalf("throttled = %d, want 980 (burst of 20 allowed)", throttled)
	}
	// Other clients are unaffected.
	if err := f.sub.Submit("calm-client", &function.Call{Spec: subSpec()}); err != nil {
		t.Fatalf("calm client throttled: %v", err)
	}
}

func TestSpikyPoolNeverThrottles(t *testing.T) {
	p := DefaultParams()
	p.NormalClientRPS = 1
	p.NormalClientBurst = 1
	f := newFixture(PoolSpiky, p)
	for i := 0; i < 10000; i++ {
		if err := f.sub.Submit("negotiated-spiky", &function.Call{Spec: subSpec()}); err != nil {
			t.Fatalf("spiky pool throttled: %v", err)
		}
	}
	if f.sub.pool != PoolSpiky {
		t.Fatal("pool mislabeled")
	}
}

func TestFutureStartTimePreserved(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	future := sim.Time(8 * time.Hour)
	c := &function.Call{Spec: subSpec(), StartAfter: future}
	f.sub.Submit("c", c)
	if c.StartAfter != future {
		t.Fatalf("StartAfter = %v", c.StartAfter)
	}
	if c.Deadline != future+time.Minute {
		t.Fatalf("deadline = %v, want measured from start time", c.Deadline)
	}
}

func TestClientRateRecovers(t *testing.T) {
	p := DefaultParams()
	p.NormalClientRPS = 10
	p.NormalClientBurst = 10
	f := newFixture(PoolNormal, p)
	for i := 0; i < 10; i++ {
		f.sub.Submit("c", &function.Call{Spec: subSpec()})
	}
	if err := f.sub.Submit("c", &function.Call{Spec: subSpec()}); !errors.Is(err, ErrThrottled) {
		t.Fatal("burst exhausted but not throttled")
	}
	f.engine.RunFor(time.Second) // refill ~10 tokens
	if err := f.sub.Submit("c", &function.Call{Spec: subSpec()}); err != nil {
		t.Fatalf("token refill failed: %v", err)
	}
}

func TestUniqueIDs(t *testing.T) {
	f := newFixture(PoolNormal, DefaultParams())
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		c := &function.Call{Spec: subSpec()}
		f.sub.Submit("c", c)
		if seen[c.ID] {
			t.Fatalf("duplicate ID %d", c.ID)
		}
		seen[c.ID] = true
	}
}

// TestFlushFollowsTheOwnersOrder: the owner's grid decides the order in
// which batches reach the DurableQ, not the order in which submitters
// took their calls. Two submitters share a QueueLB over one journaled
// shard; the second takes a call first, yet after the grid tick the
// journal lists the first submitter's batch first. The grid is armed
// after the calls arrive, so a flush a submitter scheduled for itself
// would run before the grid's and put the second batch first.
func TestFlushFollowsTheOwnersOrder(t *testing.T) {
	e := sim.NewEngine()
	shard := durableq.NewShard(durableq.ShardID{}, e, nil)
	shard.EnableJournal(0)
	qlb := queuelb.New(0, rng.New(1), [][]*durableq.Shard{{shard}}, config.NewStore(e))
	var idSeq uint64
	first := New(e, 0, PoolNormal, DefaultParams(), qlb, nil, rng.New(2), &idSeq)
	second := New(e, 0, PoolSpiky, DefaultParams(), qlb, nil, rng.New(3), &idSeq)

	early, late := &function.Call{Spec: subSpec()}, &function.Call{Spec: subSpec()}
	if err := second.Submit("c", early); err != nil {
		t.Fatal(err)
	}
	if err := first.Submit("c", late); err != nil {
		t.Fatal(err)
	}
	e.Every(FlushInterval, func() {
		first.Flush()
		second.Flush()
	})
	if n := shard.Journal().Len(); n != 0 {
		t.Fatalf("%d records journaled before the grid tick", n)
	}
	e.RunFor(FlushInterval)
	var got []uint64
	for _, en := range shard.Journal().Entries() {
		got = append(got, en.Call.ID)
	}
	if want := []uint64{late.ID, early.ID}; !slices.Equal(got, want) {
		t.Fatalf("journaled call IDs %v, want %v (the first submitter's batch first)", got, want)
	}
}
