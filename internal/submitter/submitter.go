// Package submitter implements the XFaaS submitter tier (paper §4.2):
// it batches client submissions into DurableQ writes, enforces per-client
// rate policies, and segregates very spiky clients onto a dedicated
// submitter pool so they cannot degrade normal clients.
package submitter

import (
	"errors"
	"fmt"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/kv"
	"xfaas/internal/lifecycle"
	"xfaas/internal/queuelb"
	"xfaas/internal/ratelimit"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/trace"
)

// ErrThrottled is returned when a client exceeds the submitter's rate
// policy (an unnegotiated spiky client on the normal pool).
var ErrThrottled = errors.New("submitter: client throttled")

// ErrDown is returned while the submitter process is crashed and has not
// restarted yet; the client must retry (or hit another pool member).
var ErrDown = errors.New("submitter: down")

// Pool distinguishes the two submitter sets per region.
type Pool int

const (
	// PoolNormal serves well-behaved clients.
	PoolNormal Pool = iota
	// PoolSpiky serves clients that negotiated a spiky SLO.
	PoolSpiky
)

// Params configure a submitter.
type Params struct {
	// NormalClientRPS is the per-client sustained rate allowed on the
	// normal pool before throttling kicks in (spiky pool is exempt).
	NormalClientRPS float64
	// NormalClientBurst is the matching burst allowance.
	NormalClientBurst float64
}

// FlushInterval is the cadence at which a submitter's owner calls Flush
// to persist partial batches. The submitter arms no timer of its own: a
// platform drives all of its submitters from one grid, so a flush window
// costs one engine event however many submitters there are.
const FlushInterval time.Duration = 50 * time.Millisecond

// batchSize triggers a flush when this many calls are buffered.
const batchSize int = 64

// DefaultParams return production-plausible values at simulation scale.
func DefaultParams() Params {
	return Params{
		NormalClientRPS:   2000,
		NormalClientBurst: 10000,
	}
}

// Submitter is one region's submitter pool member.
type Submitter struct {
	engine *sim.Engine
	region cluster.RegionID
	pool   Pool
	params Params
	lb     *queuelb.LB

	batch []*function.Call
	idSeq *uint64
	// clients holds each normal-pool client's admission bucket (the
	// submitter's own policy; the central limiter governs global quota
	// separately at the scheduler).
	clients map[string]*ratelimit.TokenBucket
	// down marks the window between Crash and Restart's rebuild; all
	// submissions fail with ErrDown and Flush is a no-op.
	down bool

	// Obs, when set, hears every accepted call (the trace sampling
	// decision and the ledger entry both open here). Throttled
	// submissions never get an ID and never enter the conservation
	// universe; the Throttled counter is their only record.
	Obs *lifecycle.Spine

	Submitted stats.Counter
	Throttled stats.Counter
	Batches   stats.Counter
	// RouteFailed counts calls the QueueLB could not persist anywhere
	// (total durable-queue outage); the client sees a failed submission.
	RouteFailed stats.Counter
	// LostOnCrash counts accepted calls destroyed with the in-memory
	// batch buffer — the flush window is the submitter's only state, so a
	// crash loses at most what was accepted since the owner's last Flush
	// (one FlushInterval, or batchSize calls).
	LostOnCrash stats.Counter
}

// New returns a submitter. idSeq is the shared call-ID counter for the
// platform so IDs are globally unique. The submitter flushes on its own
// only when a batch fills; the owner calls Flush every FlushInterval to
// persist partial batches. The store and the source are ignored: they
// remain in the signature only because benchmark/ passes them.
func New(engine *sim.Engine, region cluster.RegionID, pool Pool, params Params, lb *queuelb.LB, _ *kv.Store, _ *rng.Source, idSeq *uint64) *Submitter {
	return &Submitter{
		engine:  engine,
		region:  region,
		pool:    pool,
		params:  params,
		lb:      lb,
		idSeq:   idSeq,
		clients: make(map[string]*ratelimit.TokenBucket),
	}
}

// Submit accepts one function call from client. On success the call is
// assigned an ID, stamped with submit time and absolute deadline, and
// buffered for the next batched DurableQ write.
func (s *Submitter) Submit(client string, c *function.Call) error {
	if s.down {
		return ErrDown
	}
	now := s.engine.Now()
	if s.pool == PoolNormal && !s.clientAllowed(client, now) {
		s.Throttled.Inc()
		return fmt.Errorf("%w: %s", ErrThrottled, client)
	}
	*s.idSeq++
	c.ID = *s.idSeq
	c.SubmitTime = now
	c.SourceRegion = s.region
	c.StartAfter = max(c.StartAfter, now)
	if c.Deadline == 0 {
		c.Deadline = c.StartAfter + c.Spec.Deadline
	}
	c.State = function.StateSubmitted
	s.Obs.Emit(c, trace.KindSubmit, 0)
	s.batch = append(s.batch, c)
	s.Submitted.Inc()
	if len(s.batch) >= batchSize {
		s.Flush()
	}
	return nil
}

func (s *Submitter) clientAllowed(client string, now sim.Time) bool {
	b, ok := s.clients[client]
	if !ok {
		b = ratelimit.NewTokenBucket(s.params.NormalClientRPS, s.params.NormalClientBurst)
		s.clients[client] = b
	}
	return b.Allow(now, 1)
}

// Flush routes the buffered batch to the DurableQ shards through the
// QueueLB, in submission order. It schedules no engine event, and it is a
// no-op while the submitter is down or the batch is empty.
func (s *Submitter) Flush() {
	if s.down || len(s.batch) == 0 {
		return
	}
	for _, c := range s.batch {
		if !s.lb.RouteOK(c) {
			s.RouteFailed.Inc()
			s.Obs.Emit(c, trace.KindDropped, 0)
		}
	}
	s.batch = s.batch[:0]
	s.Batches.Inc()
}

// Crash models a submitter process failure: the in-memory batch buffer —
// calls accepted from clients but not yet flushed to a DurableQ — dies
// with the process. Those calls are terminally lost (the client got an
// accept, the platform will never run them); everything already flushed
// is safe in the shards. The submitter rejects submissions until Restart.
func (s *Submitter) Crash() {
	s.down = true
	lost := len(s.batch)
	for _, c := range s.batch {
		s.LostOnCrash.Inc()
		c.State = function.StateFailed
		s.Obs.Emit(c, trace.KindLost, 0)
	}
	s.batch = s.batch[:0]
	s.Obs.Control("submitter.crash",
		fmt.Sprintf("r%d pool=%d lost=%d", s.region, s.pool, lost))
}

// Restart brings a crashed submitter back after delay (process start;
// the tier is stateless beyond its flush buffer, so nothing replays).
func (s *Submitter) Restart(delay time.Duration) {
	s.engine.Schedule(delay, func() {
		s.down = false
		s.Obs.Control("submitter.restart", fmt.Sprintf("r%d pool=%d", s.region, s.pool))
	})
}

// IsDown reports whether the submitter is crashed and not yet restarted.
func (s *Submitter) IsDown() bool { return s.down }

// BatchLen returns the number of calls buffered for the next flush —
// accepted but not yet durably persisted, the first in-flight stage of
// the conservation closure.
func (s *Submitter) BatchLen() int { return len(s.batch) }
