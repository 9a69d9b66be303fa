// Package function defines the core domain types of XFaaS: function
// specifications with the attributes developers set (paper §2.4 — name,
// runtime, criticality, deadline, quota, concurrency limit, retry policy),
// a registry, and function-call objects with their lifecycle states.
package function

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/isolation"
	"xfaas/internal/sim"
)

// TriggerType classifies functions by what invokes them (paper §3.1).
type TriggerType int

const (
	// TriggerQueue marks functions submitted via the queue service.
	TriggerQueue TriggerType = iota
	// TriggerEvent marks functions activated by data-change events in the
	// data warehouse / data-stream systems.
	TriggerEvent
	// TriggerTimer marks functions fired on a pre-set timing.
	TriggerTimer
)

var triggerNames = [...]string{"queue", "event", "timer"}

func (t TriggerType) String() string {
	if t >= 0 && int(t) < len(triggerNames) {
		return triggerNames[t]
	}
	return fmt.Sprintf("trigger(%d)", int(t))
}

// Triggers lists all trigger types in a stable order.
var Triggers = []TriggerType{TriggerQueue, TriggerEvent, TriggerTimer}

// Criticality ranks how important it is to execute a function during a
// capacity crunch; higher is more critical (paper §4.4: FuncBuffers order
// by criticality first).
type Criticality int

const (
	// CritLow functions are deferred first when capacity is short.
	CritLow Criticality = iota
	// CritNormal is the default.
	CritNormal
	// CritHigh functions execute even during site outages.
	CritHigh
)

var critNames = [...]string{"low", "normal", "high"}

func (c Criticality) String() string {
	if c >= 0 && int(c) < len(critNames) {
		return critNames[c]
	}
	return fmt.Sprintf("criticality(%d)", int(c))
}

// QuotaType distinguishes the paper's two quota classes (§4.6.2).
type QuotaType int

const (
	// QuotaReserved functions start within seconds of submission (SLO).
	QuotaReserved QuotaType = iota
	// QuotaOpportunistic functions have a 24-hour execution SLO and are
	// time-shifted to off-peak hours.
	QuotaOpportunistic
)

func (q QuotaType) String() string {
	if q == QuotaOpportunistic {
		return "opportunistic"
	}
	return "reserved"
}

// RetryPolicy bounds redelivery of failed calls.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (≥1).
	MaxAttempts int
	// Backoff is the delay before a retry becomes eligible again.
	Backoff time.Duration
}

// DefaultRetry retries twice with a 10s backoff.
var DefaultRetry = RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second}

// ResourceModel describes a function's per-invocation resource needs as
// lognormal parameters; the workload generator fits these to the paper's
// Table 2/3 distributions and draws per-call values from them.
type ResourceModel struct {
	// CPUMu/CPUSigma: millions of instructions per invocation.
	CPUMu, CPUSigma float64
	// MemMu/MemSigma: peak memory MB per invocation.
	MemMu, MemSigma float64
	// TimeMu/TimeSigma: execution time in seconds (includes IO waits).
	TimeMu, TimeSigma float64
	// CodeMB is the deployed code footprint loaded from SSD per worker.
	CodeMB float64
	// JITCodeMB is the resident JIT code cache cost per worker.
	JITCodeMB float64
}

// LogNormalMean is the mean of a lognormal draw with parameters mu and
// sigma, as in ResourceModel: exp(mu + sigma²/2).
func LogNormalMean(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*sigma/2)
}

// Spec is an immutable function definition.
type Spec struct {
	Name        string
	Namespace   string
	Runtime     string
	Team        string
	Trigger     TriggerType
	Criticality Criticality
	Quota       QuotaType
	// QuotaMIPS is the global CPU quota: million instructions per second
	// the function may consume across all regions (§4.6.1). The central
	// rate limiter divides it by the average cost per invocation to get
	// an RPS limit.
	QuotaMIPS float64
	// Deadline is the execution completion deadline measured from
	// submission, ranging from seconds to 24 hours (§2.4).
	Deadline time.Duration
	// ConcurrencyLimit caps simultaneously running instances; 0 means
	// unlimited (§4.6.3).
	ConcurrencyLimit int
	// Downstream names the downstream service this function calls, if
	// any ("" = none); drives back-pressure coupling.
	Downstream string
	Retry      RetryPolicy
	// Zone is the function's execution isolation zone (§4.7).
	Zone isolation.Zone
	// Resources drives per-call resource draws.
	Resources ResourceModel
	// Ephemeral marks programmatically generated functions (Morphing
	// Framework); the locality optimizer round-robins these.
	Ephemeral bool

	// next is the spec that replaced this one in its registry, nil while
	// it is the current definition.
	next *Spec
}

// Current returns the function's current definition: s itself, or the
// spec that last replaced it by re-registration. Calls keep the spec they
// were submitted under, so gates that must follow a code update read
// their spec through Current.
func (s *Spec) Current() *Spec {
	for s.next != nil {
		s = s.next
	}
	return s
}

// Validate reports the first problem with the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return errors.New("function: empty name")
	case s.Namespace == "":
		return errors.New("function: empty namespace")
	case s.Deadline <= 0:
		return fmt.Errorf("function %s: non-positive deadline", s.Name)
	case s.Deadline > 24*time.Hour:
		return fmt.Errorf("function %s: deadline above 24h", s.Name)
	case s.QuotaMIPS < 0:
		return fmt.Errorf("function %s: negative quota", s.Name)
	case s.ConcurrencyLimit < 0:
		return fmt.Errorf("function %s: negative concurrency limit", s.Name)
	case s.Retry.MaxAttempts < 1:
		return fmt.Errorf("function %s: retry MaxAttempts < 1", s.Name)
	}
	return nil
}

// Registry holds all registered functions of a platform instance.
type Registry struct {
	byName map[string]*Spec
	names  []string // sorted lazily
	sorted bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Spec)}
}

// Register validates and adds a spec. Re-registering a name replaces the
// spec (code update): the old spec's Current becomes s.
func (r *Registry) Register(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	old, exists := r.byName[s.Name]
	if !exists {
		r.names = append(r.names, s.Name)
		r.sorted = false
	}
	s.next = nil
	if exists && old != s {
		old.next = s
	}
	r.byName[s.Name] = s
	return nil
}

// MustRegister registers or panics; for workload setup code.
func (r *Registry) MustRegister(s *Spec) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Get returns the spec by name.
func (r *Registry) Get(name string) (*Spec, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// Len returns the number of registered functions.
func (r *Registry) Len() int { return len(r.byName) }

// Names returns all function names, sorted.
func (r *Registry) Names() []string {
	if !r.sorted {
		sort.Strings(r.names)
		r.sorted = true
	}
	return r.names
}

// All returns all specs in name order.
func (r *Registry) All() []*Spec {
	out := make([]*Spec, 0, len(r.byName))
	for _, n := range r.Names() {
		out = append(out, r.byName[n])
	}
	return out
}

// State tracks a call through its lifecycle.
type State int

const (
	// StateSubmitted: accepted by a submitter, not yet durable.
	StateSubmitted State = iota
	// StateQueued: persisted in a DurableQ, waiting for its start time.
	StateQueued
	// StateLeased: offered to a scheduler, in a FuncBuffer or RunQ.
	StateLeased
	// StateRunning: executing on a worker.
	StateRunning
	// StateSucceeded: ACKed.
	StateSucceeded
	// StateFailed: exhausted retries (dead-lettered).
	StateFailed
)

var stateNames = [...]string{"submitted", "queued", "leased", "running", "succeeded", "failed"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Call is one function invocation flowing through the platform.
type Call struct {
	ID   uint64
	Spec *Spec
	// SubmitTime is when the client submitted the call.
	SubmitTime sim.Time
	// StartAfter is the caller-specified execution start time; the
	// DurableQ will not offer the call before it (§4.3). Zero means
	// "immediately".
	StartAfter sim.Time
	// Deadline is the absolute completion deadline.
	Deadline sim.Time
	// SourceRegion is where the call was submitted.
	SourceRegion cluster.RegionID
	// ArgZone labels the arguments' source isolation zone.
	ArgZone isolation.Zone

	// Drawn per-call resource needs (filled by the workload generator so
	// retries are deterministic).
	CPUWorkM float64 // millions of instructions
	MemMB    float64 // peak working set
	ExecSecs float64 // intrinsic execution time at full JIT speed

	State   State
	Attempt int // 1-based once queued
	// Lessor is the DurableQ shard, by region and index, that granted the
	// call's latest lease: its holder settles the call there.
	Lessor struct{ Region, Index int32 }
	// Obs is the call's observer record (a *trace.Record), nil until an
	// observer meets the call: every instrumentation hook bails with one
	// load when it is — the zero-alloc disabled path. It is opaque here
	// because this package cannot import its consumers. A hedge clone is a
	// value copy of the Call and shares the record.
	Obs any

	// Timeline bookkeeping for delay metrics.
	QueuedAt    sim.Time
	DispatchAt  sim.Time
	ExecStartAt sim.Time
	ExecEndAt   sim.Time
}

// Criticality returns the call's effective criticality (the spec's).
func (c *Call) Criticality() Criticality { return c.Spec.Criticality }

// Expired reports whether the call's deadline passed at time now: a call
// is expired strictly after its absolute deadline (a call whose deadline
// is exactly now is still live), and calls without a deadline never
// expire.
func (c *Call) Expired(now sim.Time) bool {
	return c.Deadline > 0 && now > c.Deadline
}

// Remaining returns the time left until the call's deadline at now, or 0
// when the deadline has passed. Calls without a deadline report a
// negative duration, meaning "unbounded".
func (c *Call) Remaining(now sim.Time) time.Duration {
	if c.Deadline <= 0 {
		return -1
	}
	if now >= c.Deadline {
		return 0
	}
	return time.Duration(c.Deadline - now)
}
