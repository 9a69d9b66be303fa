package core

import (
	"fmt"
	"io"
	"reflect"

	"xfaas/internal/stats"
)

// regionFamilies are the per-region families of WriteMetrics, in
// exposition order: each renders one Counters field, by name.
var regionFamilies = [...]struct{ name, typ, field string }{
	{"xfaas_submitted_total", "counter", "Submitted"},
	{"xfaas_submit_throttled_total", "counter", "Throttled"},
	{"xfaas_submit_route_failed_total", "counter", "RouteFailed"},
	{"xfaas_queuelb_routed_total", "counter", "Routed"},
	{"xfaas_queuelb_cross_region_total", "counter", "CrossRegion"},
	{"xfaas_dq_enqueued_total", "counter", "Enqueued"},
	{"xfaas_dq_acked_total", "counter", "ShardAcked"},
	{"xfaas_dq_redelivered_total", "counter", "Redelivered"},
	{"xfaas_dq_dead_letters_total", "counter", "DeadLetters"},
	{"xfaas_dq_lease_expired_total", "counter", "LeaseExpired"},
	{"xfaas_dq_pending", "gauge", "Pending"},
	{"xfaas_sched_polled_total", "counter", "Polled"},
	{"xfaas_sched_dispatched_total", "counter", "Dispatched"},
	{"xfaas_sched_quota_throttled_total", "counter", "QuotaThrottled"},
	{"xfaas_sched_congestion_denied_total", "counter", "CongestionDenied"},
	{"xfaas_sched_evacuated_total", "counter", "Evacuated"},
	{"xfaas_sched_slo_misses_total", "counter", "SLOMisses"},
	{"xfaas_worker_executions_total", "counter", "Executions"},
	{"xfaas_worker_failures_total", "counter", "Failures"},
	{"xfaas_worker_rejections_total", "counter", "Rejections"},
	{"xfaas_lb_detected_dead_total", "counter", "DetectedDead"},
	{"xfaas_lb_detected_gray_total", "counter", "DetectedGray"},
}

// WriteMetrics renders the platform's observable state in Prometheus
// text exposition format: the labeled Metrics registry first, then each
// region's Counters, then tracer health. Everything iterates regions in
// index order and registry families in sorted order, so the output for a
// given simulation state is byte-deterministic — the determinism CI
// diffs it.
func (p *Platform) WriteMetrics(w io.Writer) error {
	if err := p.Metrics.WritePrometheus(w, "xfaas_"); err != nil {
		return err
	}
	pw := stats.NewPromWriter(w)

	perRegion := make([]reflect.Value, len(p.regions))
	for i, reg := range p.regions {
		perRegion[i] = reflect.ValueOf(CountersOf(reg))
	}
	for _, f := range regionFamilies {
		pw.Type(f.name, f.typ)
		for i, reg := range p.regions {
			v := perRegion[i].FieldByName(f.field).Convert(reflect.TypeFor[float64]())
			pw.Sample(f.name, fmt.Sprintf("region=%q", fmt.Sprintf("r%d", reg.ID)), v.Float())
		}
	}

	// Platform-level scalars.
	pw.Type("xfaas_breaker_opens_total", "counter")
	pw.Sample("xfaas_breaker_opens_total", "", p.BreakerOpens.Value())
	pw.Type("xfaas_completions_count", "counter")
	pw.Sample("xfaas_completions_count", "", p.Completions.Value())

	// Tracer health.
	sampled, completed, dropped := p.Tracer.Stats()
	pw.Type("xfaas_trace_sampled_total", "counter")
	pw.Sample("xfaas_trace_sampled_total", "", float64(sampled))
	pw.Type("xfaas_trace_completed_total", "counter")
	pw.Sample("xfaas_trace_completed_total", "", float64(completed))
	pw.Type("xfaas_trace_dropped_events_total", "counter")
	pw.Sample("xfaas_trace_dropped_events_total", "", float64(dropped))
	pw.Type("xfaas_control_events_total", "counter")
	pw.Sample("xfaas_control_events_total", "", float64(p.Tracer.ControlCount()))
	return pw.Err()
}
