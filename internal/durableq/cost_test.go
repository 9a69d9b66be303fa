package durableq

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// The cost model these tests pin: a shard pays for what is due, not for
// what it holds. A held lease is a list node, not an engine event, a poll
// walks the set bits of the due bitset and opens only the queues whose
// head is due, and the ready count reads a running total.

const costFuncs = 192 // functions per shard on the benchmark's loaded_day

func costSpecs() []*function.Spec { return specsN(costFuncs) }

func specsN(n int) []*function.Spec {
	specs := make([]*function.Spec, n)
	for i := range specs {
		specs[i] = spec(fmt.Sprintf("fn-%03d", i), 3)
	}
	return specs
}

// leasedRig is a shard holding `held` leases, as a scheduler's renewal
// round finds it.
type leasedRig struct {
	e   *sim.Engine
	sh  *Shard
	ids []uint64
}

func newLeasedRig(held int) *leasedRig {
	r := &leasedRig{e: sim.NewEngine()}
	r.sh = newShard(r.e)
	specs := costSpecs()
	for i := 0; i < held; i++ {
		r.sh.Enqueue(call(specs[i%len(specs)], 0))
	}
	for _, c := range r.sh.Poll(held, nil) {
		r.ids = append(r.ids, c.ID)
	}
	slices.Sort(r.ids)
	return r
}

func (r *leasedRig) renewAll() {
	for _, id := range r.ids {
		r.sh.Renew(id)
	}
}

// pollRig is a shard with a deferred backlog of 64 calls per function of
// costFuncs, spread over `funcs` functions, of which `ready` also have a
// head that is due. Its filter turns every offer down, so a poll visits
// each due queue and leaves the shard as it found it.
type pollRig struct {
	sh  *Shard
	buf []*function.Call
}

func newPollRig(funcs, ready int) *pollRig {
	e := sim.NewEngine()
	r := &pollRig{sh: newShard(e)}
	for i, s := range specsN(funcs) {
		for j := 0; j < 64*costFuncs/funcs; j++ {
			r.sh.Enqueue(call(s, time.Hour+sim.Time(j)*time.Second))
		}
		if i*ready/funcs != (i+1)*ready/funcs { // spread evenly over the names
			r.sh.Enqueue(call(s, 0))
		}
	}
	return r
}

func refuse(*function.Call) bool { return false }

func (r *pollRig) poll() { r.buf = r.sh.PollInto(r.buf[:0], 64, refuse) }

func TestLeasesStayOutOfEventHeap(t *testing.T) {
	e := sim.NewEngine()
	shards := []*Shard{newShard(e), newShard(e)}
	specs := costSpecs()
	before := e.Pending()
	const perShard = 50_000
	for _, sh := range shards {
		for i := 0; i < perShard; i++ {
			sh.Enqueue(call(specs[i%len(specs)], 0))
		}
	}
	var leased [][]*function.Call
	for _, sh := range shards {
		leased = append(leased, sh.Poll(perShard, nil))
	}
	grew := func(when string) {
		t.Helper()
		if n := e.Pending() - before; n > len(shards) {
			t.Fatalf("%s: %d engine events for %d shards holding %d leases, want at most one per shard",
				when, n, len(shards), shards[0].Leased()+shards[1].Leased())
		}
	}
	grew("after granting")
	for round := 0; round < 3; round++ {
		e.RunFor(time.Minute)
		for k, sh := range shards {
			for _, c := range leased[k] {
				if !sh.Renew(c.ID) {
					t.Fatalf("lease %d lost before its timeout", c.ID)
				}
			}
		}
		grew("after a renewal round")
	}
	fired := e.Processed()
	e.RunFor(shards[0].LeaseTimeout)
	for _, sh := range shards {
		if sh.Expired.Value() != perShard || sh.Leased() != 0 {
			t.Fatalf("%v leases expired, %d still held, want %d and 0", sh.Expired.Value(), sh.Leased(), perShard)
		}
	}
	if n := e.Processed() - fired; n != 2*perShard {
		t.Fatalf("%d events fired for %d expiries: every expiry is one event, none is spurious", n, 2*perShard)
	}
	if e.Pending() != before {
		t.Fatalf("%d events left pending with no lease held", e.Pending()-before)
	}
}

func TestSteadyStateRenewAllocatesNothing(t *testing.T) {
	r := newLeasedRig(1_000)
	if avg := testing.AllocsPerRun(100, r.renewAll); avg != 0 {
		t.Fatalf("renewing 1000 leases allocates %v times per round, want 0", avg)
	}
}

func TestIdlePollAllocatesNothing(t *testing.T) {
	r := newPollRig(costFuncs, 0)
	r.poll()
	if avg := testing.AllocsPerRun(1000, r.poll); avg != 0 {
		t.Fatalf("a poll that finds nothing due allocates %v times, want 0", avg)
	}
	if len(r.buf) != 0 || r.sh.Pending() != costFuncs*64 {
		t.Fatalf("idle polls offered %d calls and left %d pending", len(r.buf), r.sh.Pending())
	}
}

func BenchmarkRenew(b *testing.B) {
	for _, held := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("held=%dk", held/1000), func(b *testing.B) {
			r := newLeasedRig(held)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.sh.Renew(r.ids[i%held])
			}
		})
	}
}

func BenchmarkPollInto(b *testing.B) {
	for _, ready := range []int{0, 8, costFuncs} {
		b.Run(fmt.Sprintf("ready=%dof%d", ready, costFuncs), func(b *testing.B) {
			r := newPollRig(costFuncs, ready)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.poll()
			}
		})
	}
}

// With a timer per lease a renewal was a removal from and a push onto an
// event heap as deep as the leases held. Now it relinks a list node: a
// renewal's key is the newest, so grant links the lease behind the tail
// it finds, walks nothing, allocates nothing and adds no engine event.
// What still grows with the number held is the lease-map lookup, which
// BenchmarkRenew times.
func TestRenewCostDoesNotFollowLeasesHeld(t *testing.T) {
	const held = 100_000
	r := newLeasedRig(held)
	r.e.RunFor(time.Minute)
	events := r.e.Pending()
	ss := r.sh.sessions[anon]
	for range 1_000 {
		tail, l := ss.tail, ss.head
		if !r.sh.Renew(l.call.ID) {
			t.Fatalf("lease %d lost before its timeout", l.call.ID)
		}
		if ss.tail != l || l.prev != tail {
			t.Fatalf("renewed lease %d was not linked behind the tail it found", l.call.ID)
		}
	}
	if r.sh.Leased() != held || r.e.Pending() != events {
		t.Fatalf("after renewals: %d leases held and %d engine events, want %d and %d",
			r.sh.Leased(), r.e.Pending(), held, events)
	}
	renewHead := func() { r.sh.Renew(ss.head.call.ID) }
	if avg := testing.AllocsPerRun(1_000, renewHead); avg != 0 {
		t.Fatalf("a renewal with %d leases held allocates %v times, want 0", held, avg)
	}
}

// The name walk paid for every function of the shard, a map lookup each,
// whether or not anything was due, and the wake array still read a time
// per function. The poll walks the set bits of the due bitset: with k of
// 192 due, it hands the filter exactly k heads, and it opens no other
// queue, so it files nothing in soon and leaves every bit as it was.
func TestPollCostFollowsDueQueues(t *testing.T) {
	for _, ready := range []int{0, 8, costFuncs} {
		r := newPollRig(costFuncs, ready)
		due, filed := slices.Clone(r.sh.due), len(r.sh.soon)
		offered := 0
		r.buf = r.sh.PollInto(r.buf[:0], 64, func(*function.Call) bool { offered++; return false })
		if offered != ready {
			t.Fatalf("%d of %d queues due: the filter saw %d heads, want %d", ready, costFuncs, offered, ready)
		}
		if !slices.Equal(r.sh.due, due) || len(r.sh.soon) != filed {
			t.Fatalf("%d of %d queues due: the poll moved due bits %x to %x, or filings %d to %d",
				ready, costFuncs, due, r.sh.due, filed, len(r.sh.soon))
		}
	}
}

// nsPer times f: the fastest of five runs of n calls, per call. The
// fastest run is the one least disturbed by the rest of the machine.
func nsPer(n int, f func()) float64 {
	best := time.Duration(math.MaxInt64)
	for range 5 {
		start := time.Now()
		for range n {
			f()
		}
		best = min(best, time.Since(start))
	}
	return float64(best) / float64(n)
}

// A poll pays for the due queues and a word of the bitset per 64
// functions: over 4,096 functions it costs at most twice what it costs
// over 192 with as many due and the same backlog. With 32 due the visits
// outweigh the 64 words and the queues' scattered memory; a scan of one
// wake time per function read 4,096 of them.
func TestPollCostDoesNotFollowFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}
	const due = 32
	small, large := newPollRig(costFuncs, due), newPollRig(4096, due)
	if s, l := nsPer(20_000, small.poll), nsPer(20_000, large.poll); l > 2*s {
		t.Fatalf("a poll with %d of 4096 functions due costs %.0f ns, with %d of %d %.0f ns: want at most 2x",
			due, l, due, costFuncs, s)
	}
}

// readyRig is a shard holding `ready` ready calls and as many deferred
// ones, as the GTC's snapshot finds it once a minute.
func readyRig(ready int) *Shard {
	e := sim.NewEngine()
	sh := newShard(e)
	specs := costSpecs()
	for i := 0; i < ready; i++ {
		sh.Enqueue(call(specs[i%len(specs)], 0))
		sh.Enqueue(call(specs[i%len(specs)], time.Hour))
	}
	if n := sh.PendingReady(); n != ready {
		panic(fmt.Sprintf("%d calls ready, want %d", n, ready))
	}
	return sh
}

// The ready count was a walk over every queued entry that is ready. It
// reads a running total now: it allocates nothing, and with 100k calls
// ready it costs at most twice what it costs with 1k.
func TestPendingReadyCostDoesNotFollowBacklog(t *testing.T) {
	small := readyRig(1_000)
	if avg := testing.AllocsPerRun(100, func() { small.PendingReady() }); avg != 0 {
		t.Fatalf("PendingReady allocates %v times per call, want 0", avg)
	}
	if testing.Short() {
		t.Skip("timing")
	}
	large := readyRig(100_000)
	count := func(sh *Shard) func() { return func() { sh.PendingReady() } }
	if s, l := nsPer(100_000, count(small)), nsPer(100_000, count(large)); l > 2*s {
		t.Fatalf("PendingReady with 100k calls ready costs %.0f ns, with 1k %.0f ns: want at most 2x", l, s)
	}
}

// A holder's renewal round stamps its sessions and touches no lease: with
// 100k leases held on each of two shards it writes no lease's key or
// links, spends exactly the sequence numbers per-lease renewal would,
// leaves one engine event per shard standing for the lot (each shard's
// alarm, at the block's first key) and allocates nothing.
func TestRenewalRoundTouchesNoLease(t *testing.T) {
	const held = 100_000
	e := sim.NewEngine()
	h := NewHolder(e)
	shards := []*Shard{newShard(e), newShard(e)}
	specs := costSpecs()
	for _, sh := range shards {
		for i := 0; i < held; i++ {
			sh.Enqueue(call(specs[i%len(specs)], 0))
		}
		if n := len(sh.PollAs(h, nil, held, nil)); n != held {
			t.Fatalf("polled %d leases, want %d", n, held)
		}
	}
	snapshot := func() map[*lease]lease {
		m := make(map[*lease]lease, 2*held)
		for _, sh := range shards {
			for _, l := range sh.leases {
				m[l] = *l
			}
		}
		return m
	}
	before := snapshot()
	for round := 1; round <= 3; round++ {
		e.RunFor(time.Minute)
		seq := e.ReserveSeq()
		h.Renew()
		if spent := e.ReserveSeq() - seq - 1; spent != 2*held {
			t.Fatalf("round %d reserved %d sequence numbers for %d leases", round, spent, 2*held)
		}
		if n := e.Pending(); n != len(shards) {
			t.Fatalf("round %d: %d engine events stand for %d leases, want %d", round, n, 2*held, len(shards))
		}
	}
	if !maps.Equal(before, snapshot()) {
		t.Fatal("a renewal round wrote a lease's key or links")
	}
	if avg := testing.AllocsPerRun(100, h.Renew); avg != 0 {
		t.Fatalf("a renewal round allocates %v times, want 0", avg)
	}
	fired := e.Processed()
	e.RunFor(shards[0].LeaseTimeout)
	for _, sh := range shards {
		if sh.Expired.Value() != held || sh.Leased() != 0 {
			t.Fatalf("%v leases lapsed, %d still held, want %d and 0", sh.Expired.Value(), sh.Leased(), held)
		}
	}
	if n := e.Processed() - fired; n != 2*held {
		t.Fatalf("%d events fired for %d lapsed leases: every expiry is one event", n, 2*held)
	}
}
