package httpapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xfaas/internal/chaos"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/slo"
)

// newTracedServer is newTestServer with per-call tracing on at sample
// rate 1, so every invocation produces a queryable trace.
func newTracedServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	cfg.Trace.Enabled = true
	cfg.Trace.SampleEvery = 1
	p := core.New(cfg, function.NewRegistry())
	s := NewServer(p, 7)
	return s, s.Handler()
}

func TestMetricsEndpointDeterministic(t *testing.T) {
	s, h := newTracedServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	for i := 0; i < 20; i++ {
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2})
	}
	s.Advance(2 * time.Minute)

	rec := do(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE xfaas_submitted_total counter",
		"xfaas_dq_acked_total{region=\"r0\"}",
		"xfaas_completions_total{",
		"xfaas_e2e_latency_seconds_count",
		"xfaas_trace_sampled_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// Same virtual time, same state → byte-identical exposition.
	rec2 := do(t, h, "GET", "/metrics", nil)
	if rec2.Body.String() != body {
		t.Fatal("metrics output is not deterministic between reads")
	}
}

func TestTracesListAndDetail(t *testing.T) {
	s, h := newTracedServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	for i := 0; i < 10; i++ {
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: 0})
	}
	s.Advance(2 * time.Minute)

	rec := do(t, h, "GET", "/traces", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("traces status = %d", rec.Code)
	}
	var list TracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Sampled != 10 || list.Completed != 10 {
		t.Fatalf("sampled/completed = %d/%d, want 10/10", list.Sampled, list.Completed)
	}
	if len(list.Recent) != 10 || len(list.Slowest) == 0 {
		t.Fatalf("recent=%d slowest=%d", len(list.Recent), len(list.Slowest))
	}

	// Detail for one call: the breakdown must telescope to the latency.
	id := list.Recent[0].ID
	rec = do(t, h, "GET", "/traces/"+jsonUint(id), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace detail status = %d: %s", rec.Code, rec.Body)
	}
	var det TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil {
		t.Fatal(err)
	}
	if !det.Done || det.Outcome != "ack" {
		t.Fatalf("done=%v outcome=%q", det.Done, det.Outcome)
	}
	sum := 0.0
	for _, v := range det.Components {
		sum += v
	}
	if math.Abs(sum-det.LatencySec) > 1e-6 {
		t.Fatalf("breakdown sum %.9f != latency %.9f", sum, det.LatencySec)
	}
	if len(det.Timeline) < 5 {
		t.Fatalf("timeline has %d events", len(det.Timeline))
	}

	// Text rendering.
	rec = do(t, h, "GET", "/traces/"+jsonUint(id)+"?format=text", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ack") {
		t.Fatalf("text render status=%d body=%q", rec.Code, rec.Body)
	}

	// Unknown ID → 404.
	rec = do(t, h, "GET", "/traces/999999", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", rec.Code)
	}
}

func TestEventsEndpointShowsChaosTimeline(t *testing.T) {
	s, h := newTracedServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	inj := chaos.NewInjector(s.p, rng.New(99))
	s.mu.Lock()
	inj.CrashWorker(0, 0, true)
	inj.DownShard(0, 0)
	s.mu.Unlock()
	s.Advance(time.Minute)
	s.mu.Lock()
	inj.UpShard(0, 0)
	s.mu.Unlock()
	s.Advance(time.Minute)

	rec := do(t, h, "GET", "/events", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("events status = %d", rec.Code)
	}
	var ev EventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]bool)
	for _, e := range ev.Events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"chaos.crash", "chaos.shard-down", "chaos.shard-up", "health.dead"} {
		if !kinds[want] {
			t.Errorf("events missing kind %q (got %v)", want, kinds)
		}
	}
	// Oldest-first ordering by sequence number.
	for i := 1; i < len(ev.Events); i++ {
		if ev.Events[i].Seq <= ev.Events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d after %d", i, ev.Events[i].Seq, ev.Events[i-1].Seq)
		}
	}

	// kind= filter narrows to the injected-fault timeline only.
	rec = do(t, h, "GET", "/events?kind=chaos.", nil)
	var filtered EventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Events) != 3 {
		t.Fatalf("chaos events = %d, want 3", len(filtered.Events))
	}
	for _, e := range filtered.Events {
		if !strings.HasPrefix(e.Kind, "chaos.") {
			t.Fatalf("filter leaked kind %q", e.Kind)
		}
	}

	// n= caps the tail.
	rec = do(t, h, "GET", "/events?n=1", nil)
	var one EventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Events) != 1 || one.Total < 4 {
		t.Fatalf("n=1 gave %d events, total %d", len(one.Events), one.Total)
	}
}

// TestObservabilityConcurrentWithPacing hammers the read endpoints while
// the engine advances on another goroutine — the lock discipline the
// paced server relies on. Run with -race (CI does).
func TestObservabilityConcurrentWithPacing(t *testing.T) {
	s, h := newTracedServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	for i := 0; i < 20; i++ {
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Advance(500 * time.Millisecond)
			}
		}
	}()
	for _, path := range []string{"/metrics", "/traces", "/events", "/stats"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s status = %d", path, rec.Code)
					return
				}
			}
		}(path)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestReadersRaceThePacedEngine runs the real pacing loop while readers
// hammer the endpoints that walk observer state. An in-flight call's
// trace events and ledger entry are written by the engine without the
// recorder's or the checker's lock — they belong to the call — so what
// orders a handler that renders them against Engine.RunFor is the server
// mutex both take. Run under -race (CI does, with -count=10): a handler
// that read observer state outside that mutex would be reported here.
func TestReadersRaceThePacedEngine(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	cfg.Trace.Enabled = true
	cfg.Trace.SampleEvery = 1
	cfg.Invariants.Enabled = true
	s := NewServer(core.New(cfg, function.NewRegistry()), 7)
	s.Speedup = 200 // one pacing step is ten virtual seconds
	h := s.Handler()
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	// Calls due over the next virtual minute: in flight when the readers
	// start, progressing while they read.
	var ids []uint64
	for i := 0; i < 40; i++ {
		rec := do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2, DelaySeconds: 1.5 * float64(i)})
		var resp struct {
			CallID uint64 `json:"call_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.CallID == 0 {
			t.Fatalf("invoke: %v: %s", err, rec.Body)
		}
		ids = append(ids, resp.CallID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Pace(stop)
	}()
	var inFlightReads atomic.Int64
	reader := func(read func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					read(i)
				}
			}
		}()
	}
	for _, path := range []string{"/traces", "/invariants", "/metrics"} {
		reader(func(int) {
			if rec := do(t, h, "GET", path, nil); rec.Code != http.StatusOK {
				t.Errorf("%s status = %d", path, rec.Code)
			}
		})
	}
	reader(func(i int) {
		rec := do(t, h, "GET", "/traces/"+jsonUint(ids[i%len(ids)]), nil)
		var resp TraceResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Errorf("trace status = %d: %v", rec.Code, err)
		} else if !resp.Done {
			inFlightReads.Add(1)
		}
	})
	reader(func(i int) { // new work arriving while the engine is paced
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2, DelaySeconds: 1})
		time.Sleep(time.Millisecond)
	})

	// Wait for the event, not the clock: the paced engine passing the last
	// call's start time.
	for deadline := time.Now().Add(30 * time.Second); ; {
		var stats StatsResponse
		if err := json.Unmarshal(do(t, h, "GET", "/stats", nil).Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if stats.VirtualTimeSec > 70 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paced engine reached only %.0f virtual seconds", stats.VirtualTimeSec)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if inFlightReads.Load() == 0 {
		t.Fatal("no reader saw an in-flight trace")
	}
	var inv InvariantsResponse
	if err := json.Unmarshal(do(t, h, "GET", "/invariants", nil).Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}
	if inv.TotalViolations != 0 || inv.Totals.Acked == 0 {
		t.Fatalf("paced run: %+v", inv)
	}
}

// TestUtilizationAndSLOEndpoints serves with core-second accounting and
// the SLO engine on and checks both bodies describe the calls served; with
// them off, both endpoints answer 404.
func TestUtilizationAndSLOEndpoints(t *testing.T) {
	_, off := newTracedServer(t)
	for _, path := range []string{"/utilization", "/slo"} {
		if rec := do(t, off, "GET", path, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("%s with accounting off: status = %d", path, rec.Code)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	cfg.Observe = cfg.Observe.EnableAll()
	s := NewServer(core.New(cfg, function.NewRegistry()), 7)
	h := s.Handler()
	do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	for i := 0; i < 20; i++ {
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2})
	}
	s.Advance(2 * time.Minute)

	rec := do(t, h, "GET", "/utilization", nil)
	var u slo.UtilizationSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &u); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("utilization status = %d: %v: %s", rec.Code, err, rec.Body)
	}
	if u.NowSecs != 120 || u.CapacityCores <= 0 || len(u.Regions) != 2 {
		t.Fatalf("utilization snapshot: now=%v cap=%v regions=%d", u.NowSecs, u.CapacityCores, len(u.Regions))
	}
	if u.BusyCoreSecs <= 0 || u.Utilization <= 0 || u.Utilization > 1 {
		t.Fatalf("served calls left busy=%v utilization=%v", u.BusyCoreSecs, u.Utilization)
	}

	rec = do(t, h, "GET", "/slo", nil)
	var sl slo.SLOSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &sl); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("slo status = %d: %v: %s", rec.Code, err, rec.Body)
	}
	if sl.NowSecs != 120 || len(sl.Classes) == 0 {
		t.Fatalf("slo snapshot: now=%v classes=%d", sl.NowSecs, len(sl.Classes))
	}
	good, bad := 0.0, 0.0
	for _, c := range sl.Classes {
		good += c.Good
		bad += c.Bad
		if c.Firing {
			t.Errorf("class %s firing after a clean run", c.Crit)
		}
	}
	if good != 20 || bad != 0 {
		t.Fatalf("slo good/bad = %v/%v, want 20/0", good, bad)
	}
}
