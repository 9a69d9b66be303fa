package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

func newTestServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	p := core.New(cfg, function.NewRegistry())
	s := NewServer(p, 7)
	return s, s.Handler()
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRegisterInvokeStats(t *testing.T) {
	s, h := newTestServer(t)

	rec := do(t, h, "POST", "/functions", FunctionRequest{Name: "resize", ExecMedianS: 0.1})
	if rec.Code != http.StatusCreated {
		t.Fatalf("register status = %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 50; i++ {
		rec = do(t, h, "POST", "/invoke", InvokeRequest{Function: "resize", Region: i % 2})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("invoke status = %d: %s", rec.Code, rec.Body)
		}
	}
	s.Advance(5 * time.Minute)

	rec = do(t, h, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Acked != 50 {
		t.Fatalf("executed = %v, want 50", st.Acked)
	}
	if st.VirtualTimeSec != 300 {
		t.Fatalf("virtual time = %v", st.VirtualTimeSec)
	}
	if len(st.Regions) != 2 {
		t.Fatalf("regions = %d", len(st.Regions))
	}
}

func TestFunctionIntrospection(t *testing.T) {
	s, h := newTestServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{
		Name: "limited", Quota: "opportunistic", QuotaMIPS: 100, CPUMedianM: 10,
	})
	s.Advance(time.Second)
	rec := do(t, h, "GET", "/functions/limited", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var fr FunctionResponse
	json.Unmarshal(rec.Body.Bytes(), &fr)
	if fr.Quota != "opportunistic" || fr.RPSLimit <= 0 {
		t.Fatalf("response = %+v", fr)
	}
	if rec := do(t, h, "GET", "/functions/ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("ghost status = %d", rec.Code)
	}
}

func TestInvokeValidation(t *testing.T) {
	_, h := newTestServer(t)
	if rec := do(t, h, "POST", "/invoke", InvokeRequest{Function: "nope"}); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown function status = %d", rec.Code)
	}
	do(t, h, "POST", "/functions", FunctionRequest{Name: "f"})
	if rec := do(t, h, "POST", "/invoke", InvokeRequest{Function: "f", Region: 99}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad region status = %d", rec.Code)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, h := newTestServer(t)
	if rec := do(t, h, "POST", "/functions", FunctionRequest{}); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty name status = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/functions", FunctionRequest{Name: "x", Criticality: "extreme"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad criticality status = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/functions", FunctionRequest{Name: "x", Quota: "free"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad quota status = %d", rec.Code)
	}
}

// TestRequestBodiesValidated: a delay that time.Duration cannot hold, or
// a negative one, is refused rather than run now, and both request
// bodies reject unknown keys as a workload spec file does.
func TestRequestBodiesValidated(t *testing.T) {
	_, h := newTestServer(t)
	if rec := do(t, h, "POST", "/functions", FunctionRequest{Name: "f"}); rec.Code != http.StatusCreated {
		t.Fatalf("register status = %d: %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/invoke", `{"function":"f","delay_seconds":1e9}`, http.StatusAccepted},
		{"/invoke", `{"function":"f","delay_seconds":1e10}`, http.StatusBadRequest},
		{"/invoke", `{"function":"f","delay_seconds":-5}`, http.StatusBadRequest},
		{"/invoke", `{"function":"f","delay_secs":5}`, http.StatusBadRequest},
		{"/functions", `{"name":"g","exec_median_s":0.1}`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", tc.path, bytes.NewBufferString(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("POST %s %s: status %d, want %d: %s", tc.path, tc.body, rec.Code, tc.want, rec.Body)
		}
	}
}

func TestDelayedInvocationHonored(t *testing.T) {
	s, h := newTestServer(t)
	do(t, h, "POST", "/functions", FunctionRequest{Name: "later", ExecMedianS: 0.05})
	do(t, h, "POST", "/invoke", InvokeRequest{Function: "later", DelaySeconds: 600})
	s.Advance(5 * time.Minute)
	var st StatsResponse
	rec := do(t, h, "GET", "/stats", nil)
	json.Unmarshal(rec.Body.Bytes(), &st)
	if st.Acked != 0 {
		t.Fatalf("delayed call ran early: %v", st.Acked)
	}
	s.Advance(10 * time.Minute)
	rec = do(t, h, "GET", "/stats", nil)
	json.Unmarshal(rec.Body.Bytes(), &st)
	if st.Acked != 1 {
		t.Fatalf("delayed call never ran: %v", st.Acked)
	}
}

func TestPaceAdvancesWithWallClock(t *testing.T) {
	s, _ := newTestServer(t)
	s.Speedup = 100
	stop := make(chan struct{})
	go s.Pace(stop)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	s.mu.Lock()
	now := s.p.Engine.Now()
	s.mu.Unlock()
	// ≥ 100ms wall elapsed at 100x ⇒ ≥ 10s virtual (generous bounds for
	// scheduler jitter).
	if now < 10*time.Second {
		t.Fatalf("virtual time = %v, want ≥ 10s", now)
	}
}

func TestInvariantsEndpoint(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	cfg.Invariants.Enabled = true
	p := core.New(cfg, function.NewRegistry())
	s := NewServer(p, 7)
	h := s.Handler()

	rec := do(t, h, "POST", "/functions", FunctionRequest{Name: "audited", ExecMedianS: 0.1})
	if rec.Code != http.StatusCreated {
		t.Fatalf("register status = %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 20; i++ {
		do(t, h, "POST", "/invoke", InvokeRequest{Function: "audited", Region: i % 2})
	}
	s.Advance(10 * time.Minute)

	rec = do(t, h, "GET", "/invariants", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("invariants status = %d", rec.Code)
	}
	var resp InvariantsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled {
		t.Fatal("enabled = false with the checker wired")
	}
	if resp.TotalViolations != 0 || len(resp.Violations) != 0 {
		t.Fatalf("violations on a clean run: %+v", resp.Violations)
	}
	if resp.Totals.Submitted != 20 || resp.Totals.Acked == 0 {
		t.Fatalf("totals %+v", resp.Totals)
	}
	if resp.Evaluations == 0 {
		t.Fatal("checker never evaluated")
	}
}

func TestInvariantsEndpointDisabled(t *testing.T) {
	_, h := newTestServer(t)
	rec := do(t, h, "GET", "/invariants", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp InvariantsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled {
		t.Fatal("enabled = true without the checker")
	}
}

func TestInstallPopulationInvokable(t *testing.T) {
	data, err := os.ReadFile("../workload/testdata/workload.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := workload.ParseSpecFile(data)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := sf.Population(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 6
	cfg.CodePushInterval = 0
	p := core.New(cfg, pop.Registry)
	h := NewServer(p, 7).Handler()

	rec := do(t, h, "POST", "/invoke", InvokeRequest{Function: "thumbnail-resize"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("invoke of spec-file function = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/functions/nightly-aggregation", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("introspection of spec-file function = %d", rec.Code)
	}
}

// TestReregisteredQuotaIsEnforced: a definition replaced through POST
// /functions governs the function's calls from then on, including those
// its schedulers buffered under the old definition.
func TestReregisteredQuotaIsEnforced(t *testing.T) {
	s, h := newTestServer(t)
	acked := func() float64 {
		var st StatsResponse
		json.Unmarshal(do(t, h, "GET", "/stats", nil).Body.Bytes(), &st)
		return st.Acked
	}
	phase := func(req FunctionRequest) {
		if rec := do(t, h, "POST", "/functions", req); rec.Code != http.StatusCreated {
			t.Fatalf("register status = %d: %s", rec.Code, rec.Body)
		}
		for i := 0; i < 60; i++ {
			if rec := do(t, h, "POST", "/invoke", InvokeRequest{Function: "f", Region: i % 2}); rec.Code != http.StatusAccepted {
				t.Fatalf("invoke status = %d: %s", rec.Code, rec.Body)
			}
		}
		s.Advance(2 * time.Minute)
	}
	phase(FunctionRequest{Name: "f", QuotaMIPS: 1})
	if n := acked(); n >= 60 {
		t.Fatalf("acked %v of 60 under a 1-MIPS quota", n)
	}
	phase(FunctionRequest{Name: "f"})
	var fr FunctionResponse
	json.Unmarshal(do(t, h, "GET", "/functions/f", nil).Body.Bytes(), &fr)
	if fr.RPSLimit != -1 {
		t.Fatalf("rps_limit = %v after the quota was lifted, want -1", fr.RPSLimit)
	}
	if n := acked(); n != 120 {
		t.Fatalf("acked %v of 120 after the quota was lifted", n)
	}
}

// TestStrictJSONRejectsTrailingData: a spec file, a config file and a
// request body each hold exactly one JSON document, so a stray closing
// brace or bracket after it is refused like any other trailing data.
func TestStrictJSONRejectsTrailingData(t *testing.T) {
	_, h := newTestServer(t)
	for _, tail := range []string{"}", "]", " x"} {
		if _, err := workload.ParseSpecFile([]byte(`{"functions": [{"name": "a"}]}` + tail)); err == nil {
			t.Errorf("ParseSpecFile accepted a document followed by %q", tail)
		}
		if _, err := core.ParseConfigFile([]byte(`{"regions": 2}` + tail)); err == nil {
			t.Errorf("ParseConfigFile accepted a document followed by %q", tail)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/functions", bytes.NewBufferString(`{"name": "a"}`+tail)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST /functions with a body followed by %q: status %d, want 400", tail, rec.Code)
		}
	}
}
