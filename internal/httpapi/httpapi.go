// Package httpapi exposes a running platform over HTTP: register
// functions, invoke them, and read telemetry. The simulation engine is
// advanced in step with the wall clock (optionally time-compressed), so
// xfaasd behaves like a live miniature XFaaS cell that can be driven with
// curl while the full control plane — queues, schedulers, quotas, AIMD,
// locality groups — runs underneath.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/rng"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

// FunctionRequest is the JSON body of POST /functions — the same schema
// a workload spec file uses per function, so HTTP registration and
// -workload files share one validator and one Spec materializer.
type FunctionRequest = workload.FuncSpec

// InvokeRequest is the JSON body of POST /invoke.
type InvokeRequest struct {
	Function string `json:"function"`
	Client   string `json:"client"`
	Region   int    `json:"region"`
	// DelaySeconds sets a future execution start time.
	DelaySeconds float64 `json:"delay_seconds"`
}

// Server bridges HTTP handlers and the single-threaded engine. All
// engine access happens under mu; the pacing loop takes the same lock,
// so handlers and virtual time never race.
type Server struct {
	mu  sync.Mutex
	p   *core.Platform
	src *rng.Source
	// Speedup compresses wall time: 60 means one wall second advances a
	// virtual minute.
	Speedup float64

	started time.Time
}

// NewServer wraps a platform. Call Pace (usually in a goroutine) to bind
// virtual time to the wall clock. Every function in the platform's
// registry, whether a -workload file put it there before the platform was
// built or POST /functions did since, is invokable.
func NewServer(p *core.Platform, seed uint64) *Server {
	return &Server{p: p, src: rng.New(seed), Speedup: 1, started: time.Now()}
}

// Pace advances the engine in step with the wall clock until stop is
// closed. Granularity is 50ms of wall time per step.
func (s *Server) Pace(stop <-chan struct{}) {
	const step = 50 * time.Millisecond
	ticker := time.NewTicker(step)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.mu.Lock()
			s.p.Engine.RunFor(time.Duration(float64(step) * s.Speedup))
			s.mu.Unlock()
		}
	}
}

// Advance moves virtual time forward directly (tests and batch drivers).
func (s *Server) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.Engine.RunFor(d)
}

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /functions", s.handleRegister)
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /functions/{name}", s.handleFunction)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /invariants", s.handleInvariants)
	mux.HandleFunc("GET /utilization", s.handleUtilization)
	mux.HandleFunc("GET /slo", s.handleSLO)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req FunctionRequest
	if err := workload.DecodeStrict(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate has run the registry's own check on the completed spec.
	spec := req.Spec()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.Registry.MustRegister(spec)
	writeJSON(w, http.StatusCreated, map[string]string{"registered": spec.Name})
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	var req InvokeRequest
	if err := workload.DecodeStrict(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	if req.DelaySeconds < 0 || req.DelaySeconds > workload.MaxSpecSeconds {
		httpError(w, http.StatusBadRequest, "delay_seconds must be in [0, %g], got %v",
			float64(workload.MaxSpecSeconds), req.DelaySeconds)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	spec, ok := s.p.Registry.Get(req.Function)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown function %q", req.Function)
		return
	}
	if req.Region < 0 || req.Region >= s.p.Topo.NumRegions() {
		httpError(w, http.StatusBadRequest, "region out of range")
		return
	}
	c := workload.NewModel(spec, 0, "", s.src).NewCall(s.p.Engine.Now())
	if req.DelaySeconds > 0 {
		c.StartAfter = s.p.Engine.Now() + time.Duration(req.DelaySeconds*float64(time.Second))
	}
	client := req.Client
	if client == "" {
		client = "http"
	}
	if err := s.p.Submit(cluster.RegionID(req.Region), client, c); err != nil {
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"call_id":      c.ID,
		"virtual_time": s.p.Engine.Now().Seconds(),
	})
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	VirtualTimeSec  float64       `json:"virtual_time_seconds"`
	UptimeSec       float64       `json:"uptime_seconds"`
	MeanUtilization float64       `json:"mean_utilization"`
	OpportunisticS  float64       `json:"opportunistic_scale"`
	Acked           float64       `json:"calls_executed"`
	SLOMisses       float64       `json:"slo_misses"`
	Pending         int           `json:"calls_pending"`
	Regions         []RegionStats `json:"regions"`
}

// RegionStats is per-region telemetry.
type RegionStats struct {
	Region      int     `json:"region"`
	Workers     int     `json:"workers"`
	Utilization float64 `json:"utilization"`
	Acked       float64 `json:"calls_executed"`
	CrossPulls  float64 `json:"cross_region_pulls"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := StatsResponse{
		VirtualTimeSec:  s.p.Engine.Now().Seconds(),
		UptimeSec:       time.Since(s.started).Seconds(),
		MeanUtilization: s.p.MeanUtilization(),
		OpportunisticS:  s.p.Central.Scale(),
		Acked:           s.p.Acked(),
		SLOMisses:       s.p.SLOMisses(),
		Pending:         s.p.PendingCalls(),
	}
	for _, reg := range s.p.Regions() {
		c := core.CountersOf(reg)
		resp.Regions = append(resp.Regions, RegionStats{
			Region:      int(reg.ID),
			Workers:     len(reg.Workers),
			Utilization: stats.MeanOf(lastValues(reg.UtilSeries, 5)),
			Acked:       c.SchedAcked,
			CrossPulls:  c.CrossRegionPulls,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// FunctionResponse is the GET /functions/{name} payload.
type FunctionResponse struct {
	Name        string  `json:"name"`
	Criticality string  `json:"criticality"`
	Quota       string  `json:"quota"`
	DeadlineSec float64 `json:"deadline_seconds"`
	RPSLimit    float64 `json:"rps_limit"` // -1 = unlimited
	CurrentRPS  float64 `json:"current_rps"`
}

func (s *Server) handleFunction(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	defer s.mu.Unlock()
	spec, ok := s.p.Registry.Get(name)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown function %q", name)
		return
	}
	writeJSON(w, http.StatusOK, FunctionResponse{
		Name:        spec.Name,
		Criticality: spec.Criticality.String(),
		Quota:       spec.Quota.String(),
		DeadlineSec: spec.Deadline.Seconds(),
		RPSLimit:    s.p.Central.RPSLimit(spec),
		CurrentRPS:  s.p.Central.CurrentRPS(spec),
	})
}

// InvariantsResponse is the GET /invariants payload.
type InvariantsResponse struct {
	Enabled         bool                 `json:"enabled"`
	Evaluations     uint64               `json:"evaluations"`
	TotalViolations uint64               `json:"total_violations"`
	LateEvents      uint64               `json:"late_events"`
	Totals          InvariantTally       `json:"totals"`
	Violations      []InvariantViolation `json:"violations"`
}

// InvariantTally is the conservation ledger's current balance.
type InvariantTally struct {
	Submitted    uint64 `json:"submitted"`
	Acked        uint64 `json:"acked"`
	DeadLettered uint64 `json:"dead_lettered"`
	Dropped      uint64 `json:"dropped"`
	InFlight     int    `json:"in_flight"`
}

// InvariantViolation is one recorded invariant breach.
type InvariantViolation struct {
	AtSec   float64 `json:"virtual_time_seconds"`
	Name    string  `json:"name"`
	CallID  uint64  `json:"call_id,omitempty"`
	Detail  string  `json:"detail"`
	Context string  `json:"context,omitempty"`
}

func (s *Server) handleInvariants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.p.Inv
	tot := k.Totals()
	resp := InvariantsResponse{
		Enabled:         k.Enabled(),
		Evaluations:     k.Evals(),
		TotalViolations: k.TotalViolations(),
		LateEvents:      k.LateEvents(),
		Totals: InvariantTally{
			Submitted:    tot.Submitted,
			Acked:        tot.Acked,
			DeadLettered: tot.DeadLettered,
			Dropped:      tot.Dropped,
			InFlight:     tot.InFlight,
		},
		Violations: []InvariantViolation{},
	}
	for _, v := range k.Violations() {
		resp.Violations = append(resp.Violations, InvariantViolation{
			AtSec:   v.At.Seconds(),
			Name:    v.Name,
			CallID:  v.CallID,
			Detail:  v.Detail,
			Context: v.Context,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func lastValues(ts *stats.TimeSeries, n int) []float64 {
	v := ts.Values()
	if len(v) > n {
		v = v[len(v)-n:]
	}
	return v
}
