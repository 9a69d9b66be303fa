package policy

import (
	"reflect"
	"testing"
	"time"

	"xfaas/internal/config"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/worker"
)

// fakeHost records which pipeline stages a policy invoked, in order.
type fakeHost struct {
	calls []string
	src   *rng.Source
	pool  []*worker.Worker
	util  float64

	// mults records every PollScaled budget multiplier; pollHook, when
	// set, stands in for the admissions a real poll would produce.
	mults    []float64
	pollHook func(mult float64)
	// warmed accumulates every pre-warmed function name.
	warmed []string
}

func (h *fakeHost) Rand() *rng.Source {
	if h.src == nil {
		h.src = rng.New(1)
	}
	return h.src
}
func (h *fakeHost) DefaultPoll() { h.calls = append(h.calls, "poll") }
func (h *fakeHost) PollScaled(mult float64) {
	h.calls = append(h.calls, "pollscaled")
	h.mults = append(h.mults, mult)
	if h.pollHook != nil {
		h.pollHook(mult)
	}
}
func (h *fakeHost) DefaultShedSweep() { h.calls = append(h.calls, "shed") }
func (h *fakeHost) DefaultSchedule()  { h.calls = append(h.calls, "schedule") }
func (h *fakeHost) DefaultDispatch()  { h.calls = append(h.calls, "dispatch") }
func (h *fakeHost) DispatchWith(pick func(*function.Call) (*worker.Worker, bool)) {
	h.calls = append(h.calls, "dispatchwith")
}
func (h *fakeHost) GroupPool(spec *function.Spec) []*worker.Worker { return h.pool }
func (h *fakeHost) WorkerUsable(w *worker.Worker) bool             { return true }
func (h *fakeHost) GateOpportunistic(gate bool)                    { h.calls = append(h.calls, "gate") }
func (h *fakeHost) PrewarmFunctions(fns []string) {
	h.calls = append(h.calls, "prewarm")
	h.warmed = append(h.warmed, fns...)
}
func (h *fakeHost) PoolUtilization() float64 { return h.util }

// TestFactoryShippedNames: every shipped name builds its policy with the
// shipped knob values, and the empty name is the push default.
func TestFactoryShippedNames(t *testing.T) {
	want := map[string]Policy{
		"":                &Push{},
		config.PolicyPush: &Push{},
		config.PolicyPull: &Pull{maxPerWorker: 32},
		config.PolicyPrewarm: &Prewarm{
			alpha: 0.3, beta: 0.1, horizonTicks: 5, maxBoost: 4, topK: 16, intervalTicks: 30,
		},
		config.PolicySPES: &SPES{perf: 0.5, spareTarget: 0.3, topK: 16, intervalTicks: 30},
	}
	for _, name := range config.PolicyNames() {
		if _, ok := want[name]; !ok {
			t.Fatalf("shipped policy %q has no expectation here", name)
		}
	}
	for name, w := range want {
		if got := New(name); !reflect.DeepEqual(got, w) {
			t.Errorf("New(%q) = %+v, want %+v", name, got, w)
		}
	}
}

func TestFactoryUnknownNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with an unknown policy name did not panic")
		}
	}()
	New("bogus")
}

func TestPushRunsDefaultPipelineOnly(t *testing.T) {
	h := &fakeHost{}
	p := New(config.PolicyPush)
	p.Attach(h)
	p.Tick()
	want := []string{"poll", "shed", "schedule", "dispatch"}
	if len(h.calls) != len(want) {
		t.Fatalf("push tick invoked %v, want %v", h.calls, want)
	}
	for i := range want {
		if h.calls[i] != want[i] {
			t.Fatalf("push tick invoked %v, want %v", h.calls, want)
		}
	}
	// Push must never touch the policy RNG: the byte-identity contract
	// depends on the scheduler's stream staying unsplit.
	if h.src != nil {
		t.Fatal("push policy drew from the host RNG")
	}
	// And its retry hook must always decline.
	if _, ok := p.RetryBase(&function.Call{Spec: &function.Spec{}}); ok {
		t.Fatal("push RetryBase did not decline")
	}
}

func TestPullTickUsesDispatchWith(t *testing.T) {
	h := &fakeHost{}
	p := New(config.PolicyPull)
	p.Attach(h)
	p.Tick()
	want := []string{"poll", "shed", "schedule", "dispatchwith"}
	for i := range want {
		if h.calls[i] != want[i] {
			t.Fatalf("pull tick invoked %v, want %v", h.calls, want)
		}
	}
}

func TestSPESRetryBaseScalesWithPerf(t *testing.T) {
	mk := func(perf float64) Policy {
		p := New(config.PolicySPES).(*SPES)
		p.perf = perf
		p.Attach(&fakeHost{})
		return p
	}
	c := &function.Call{Spec: &function.Spec{
		Retry: function.RetryPolicy{Backoff: 10 * time.Second},
	}}
	fast, ok := mk(1.0).RetryBase(c)
	if !ok || fast != 10*time.Second {
		t.Fatalf("Perf=1 retry base = %v ok=%v, want 10s (spec backoff, no stretch)", fast, ok)
	}
	slow, ok := mk(0.0).RetryBase(c)
	if !ok || slow != 20*time.Second {
		t.Fatalf("Perf=0 retry base = %v ok=%v, want 20s (2x stretch)", slow, ok)
	}
	// No spec backoff → nothing to stretch: decline so the shard applies
	// its own default path.
	none := &function.Call{Spec: &function.Spec{}}
	if _, ok := mk(0.0).RetryBase(none); ok {
		t.Fatal("RetryBase accepted a call with no retry backoff")
	}
}

func TestSPESGatesOpportunisticUnderPressure(t *testing.T) {
	p := New(config.PolicySPES).(*SPES)
	p.perf = 0                // full reservation: reserve = spareTarget = 0.3
	h := &fakeHost{util: 0.9} // spare 0.1 < reserve 0.3 → gate
	p.Attach(h)
	p.Tick()
	gated := false
	for _, call := range h.calls {
		if call == "gate" {
			gated = true
		}
	}
	if !gated {
		t.Fatalf("SPES at 90%% utilization with a 30%% reserve never gated: %v", h.calls)
	}
}
