package durableq

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// The cost model these tests pin: a shard pays for what is due, not for
// what it holds. A held lease is a list node, not an engine event, and a
// poll reads one dense array of wake times and opens only the queues
// whose head is due.

const costFuncs = 192 // functions per shard on the benchmark's loaded_day

func costSpecs() []*function.Spec {
	specs := make([]*function.Spec, costFuncs)
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

// pollRig is a shard with a deferred backlog behind every function, of
// which `ready` functions also have a head that is due. Its filter turns
// every offer down, so a poll visits each due queue and leaves the shard
// as it found it.
type pollRig struct {
	sh  *Shard
	buf []*function.Call
}

func newPollRig(ready int) *pollRig {
	e := sim.NewEngine()
	r := &pollRig{sh: newShard(e)}
	for i, s := range costSpecs() {
		for j := 0; j < 64; j++ {
			r.sh.Enqueue(call(s, time.Hour+sim.Time(j)*time.Second))
		}
		if i*ready/costFuncs != (i+1)*ready/costFuncs { // spread evenly over the names
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
	r := newPollRig(0)
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
			r := newPollRig(ready)
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
// whether or not anything was due. The scan reads the dense wake array and
// opens only the queues whose head is due: with k of 192 due, a poll hands
// the filter exactly k heads and writes no other queue's wake time.
func TestPollCostFollowsDueQueues(t *testing.T) {
	for _, ready := range []int{0, 8, costFuncs} {
		r := newPollRig(ready)
		now := r.sh.engine.Now()
		// Move every queue that is not due one tick later: still not due,
		// and a poll that opened the queue would write its head's time back.
		for i, w := range r.sh.wake {
			if w > now {
				r.sh.wake[i] = w + 1
			}
		}
		want := slices.Clone(r.sh.wake)
		offered := 0
		r.buf = r.sh.PollInto(r.buf[:0], 64, func(*function.Call) bool { offered++; return false })
		if offered != ready {
			t.Fatalf("%d of %d queues due: the filter saw %d heads, want %d", ready, costFuncs, offered, ready)
		}
		for i := range want {
			if r.sh.wake[i] != want[i] {
				t.Fatalf("%d of %d queues due: the poll rewrote queue %d's wake time %v to %v",
					ready, costFuncs, i, want[i], r.sh.wake[i])
			}
		}
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
