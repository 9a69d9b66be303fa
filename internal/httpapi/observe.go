package httpapi

import (
	"net/http"
	"strconv"
	"strings"

	"xfaas/internal/trace"
)

// This file is the observability surface of the HTTP API: Prometheus
// text metrics, sampled call traces with latency breakdowns, and the
// control-plane event log (chaos injections, breaker flips, health
// transitions). All handlers take s.mu so they see a consistent
// snapshot between pacing steps.

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.p.WriteMetrics(w); err != nil {
		// Headers are already out; nothing useful left to do.
		return
	}
}

// TraceSummary is one entry of the GET /traces listing.
type TraceSummary struct {
	ID         uint64  `json:"id"`
	Function   string  `json:"function"`
	Crit       string  `json:"criticality"`
	Quota      string  `json:"quota"`
	Region     int     `json:"region"`
	SubmitSec  float64 `json:"submit_seconds"`
	LatencySec float64 `json:"latency_seconds"`
	Outcome    string  `json:"outcome"`
	Attempts   int     `json:"attempts"`
	Events     int     `json:"events"`
}

// TracesResponse is the GET /traces payload.
type TracesResponse struct {
	Sampled   uint64         `json:"traces_sampled"`
	Completed uint64         `json:"traces_completed"`
	Active    int            `json:"traces_active"`
	Slowest   []TraceSummary `json:"slowest"`
	Recent    []TraceSummary `json:"recent"`
}

func summarize(t *trace.CallTrace) TraceSummary {
	return TraceSummary{
		ID:         t.ID,
		Function:   t.Func,
		Crit:       t.Crit.String(),
		Quota:      t.Quota.String(),
		Region:     int(t.Region),
		SubmitSec:  t.SubmitAt.Seconds(),
		LatencySec: t.Latency().Seconds(),
		Outcome:    t.Outcome.String(),
		Attempts:   t.Attempts,
		Events:     len(t.Events),
	}
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, ok := limitParam(w, r, 50)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.p.Tracer
	sampled, completed, _ := tr.Stats()
	resp := TracesResponse{
		Sampled:   sampled,
		Completed: completed,
		Active:    tr.Active(),
		Slowest:   []TraceSummary{},
		Recent:    []TraceSummary{},
	}
	for _, t := range tr.Slowest() {
		resp.Slowest = append(resp.Slowest, summarize(t))
	}
	recent := tr.Recent()
	// Newest first, capped at limit.
	for i := len(recent) - 1; i >= 0 && len(resp.Recent) < limit; i-- {
		resp.Recent = append(resp.Recent, summarize(recent[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

// TraceEvent is one span event of the GET /traces/{id} payload.
type TraceEvent struct {
	AtSec  float64 `json:"at_seconds"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// TraceResponse is the GET /traces/{id} payload.
type TraceResponse struct {
	TraceSummary
	Done       bool               `json:"done"`
	Truncated  int                `json:"events_truncated"`
	Components map[string]float64 `json:"breakdown_seconds,omitempty"`
	Timeline   []TraceEvent       `json:"timeline"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad trace id")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.p.Tracer.Find(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "no trace for call %d (unsampled, evicted, or unknown)", id)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(t.Render()))
		return
	}
	resp := TraceResponse{
		TraceSummary: summarize(t),
		Done:         t.Done,
		Truncated:    t.Truncated,
		Timeline:     []TraceEvent{},
	}
	if b, ok := t.Breakdown(); ok {
		resp.Components = map[string]float64{
			"submit":   b.Submit.Seconds(),
			"migrate":  b.Migrate.Seconds(),
			"deferred": b.Deferred.Seconds(),
			"queue":    b.Queue.Seconds(),
			"retry":    b.Retry.Seconds(),
			"sched":    b.Sched.Seconds(),
			"exec":     b.Exec.Seconds(),
		}
	}
	for _, e := range t.Events {
		resp.Timeline = append(resp.Timeline, TraceEvent{
			AtSec:  e.At.Seconds(),
			Kind:   e.Kind.String(),
			Detail: trace.FormatArg(e.Kind, e.Arg),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p.Acct == nil {
		httpError(w, http.StatusNotFound, "core-second accounting disabled (set Observe.Enabled)")
		return
	}
	writeJSON(w, http.StatusOK, s.p.Acct.Snapshot(s.p.Engine.Now()))
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.p.SLO == nil {
		httpError(w, http.StatusNotFound, "SLO engine disabled (set Observe.Enabled)")
		return
	}
	writeJSON(w, http.StatusOK, s.p.SLO.Snapshot(s.p.Engine.Now()))
}

// ControlEvent is one entry of the GET /events payload.
type ControlEvent struct {
	Seq    uint64  `json:"seq"`
	AtSec  float64 `json:"at_seconds"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail"`
}

// EventsResponse is the GET /events payload: the most recent
// control-plane events, oldest first.
type EventsResponse struct {
	Total  uint64         `json:"events_total"`
	Events []ControlEvent `json:"events"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	limit, ok := limitParam(w, r, 100)
	if !ok {
		return
	}
	kind := r.URL.Query().Get("kind")
	s.mu.Lock()
	defer s.mu.Unlock()
	all := s.p.Tracer.Controls()
	resp := EventsResponse{
		Total:  s.p.Tracer.ControlCount(),
		Events: []ControlEvent{},
	}
	// Filter first, then keep the newest `limit` in oldest-first order.
	var kept []trace.ControlEvent
	for _, e := range all {
		if kind == "" || strings.HasPrefix(e.Kind, kind) {
			kept = append(kept, e)
		}
	}
	if len(kept) > limit {
		kept = kept[len(kept)-limit:]
	}
	for _, e := range kept {
		resp.Events = append(resp.Events, ControlEvent{
			Seq:    e.Seq,
			AtSec:  e.At.Seconds(),
			Kind:   e.Kind,
			Detail: e.Detail,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// limitParam reads the optional query parameter n, a positive integer
// (def when absent); a malformed n is answered with 400 and ok false.
func limitParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	v := r.URL.Query().Get("n")
	if v == "" {
		return def, true
	}
	if n, err := strconv.Atoi(v); err == nil && n >= 1 {
		return n, true
	}
	httpError(w, http.StatusBadRequest, "n must be a positive integer")
	return 0, false
}
