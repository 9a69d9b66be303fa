package core

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"xfaas/internal/scheduler"
	"xfaas/internal/workload"
)

// ConfigFile is the on-disk platform configuration: a JSON document of
// overrides applied on top of DefaultConfig. Every field is a pointer
// (or slice) so absence and an explicit zero are distinguishable —
// `"locality_groups": 0` disables locality grouping, while omitting the
// key keeps the default of 4. xfaasd loads one with -config.
type ConfigFile struct {
	Seed                *uint64  `json:"seed,omitempty"`
	Regions             *int     `json:"regions,omitempty"`
	TotalWorkers        *int     `json:"total_workers,omitempty"`
	SchedulersPerRegion *int     `json:"schedulers_per_region,omitempty"`
	LeaseTimeoutSec     *float64 `json:"lease_timeout_seconds,omitempty"`
	QueueLocalFrac      *float64 `json:"queue_local_frac,omitempty"`
	LocalityGroups      *int     `json:"locality_groups,omitempty"`
	EnableGTC           *bool    `json:"enable_gtc,omitempty"`
	CodePushIntervalSec *float64 `json:"code_push_interval_seconds,omitempty"`
	SpikyClients        []string `json:"spiky_clients,omitempty"`
	PrewarmJIT          *bool    `json:"prewarm_jit,omitempty"`
	UtilTarget          *float64 `json:"utilization_target,omitempty"`

	Trace      *TraceOverrides     `json:"trace,omitempty"`
	Invariants *InvariantOverrides `json:"invariants,omitempty"`
}

// TraceOverrides configures per-call tracing.
type TraceOverrides struct {
	Enabled     *bool   `json:"enabled,omitempty"`
	SampleEvery *uint64 `json:"sample_every,omitempty"`
}

// InvariantOverrides configures continuous invariant checking.
type InvariantOverrides struct {
	Enabled     *bool    `json:"enabled,omitempty"`
	IntervalSec *float64 `json:"interval_seconds,omitempty"`
}

// ParseConfigFile strictly decodes and validates a config override
// document. Unknown fields are errors.
func ParseConfigFile(data []byte) (*ConfigFile, error) {
	var cf ConfigFile
	if err := workload.DecodeStrict(bytes.NewReader(data), &cf); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := cf.Validate(); err != nil {
		return nil, err
	}
	return &cf, nil
}

// Validate bounds-checks every present override. Durations in seconds
// are capped at workload.MaxSpecSeconds, as in spec files.
func (cf *ConfigFile) Validate() error {
	bad := func(name string, v float64, min float64) error {
		return fmt.Errorf("config: %s must be finite, >= %g and <= %g, got %v", name, min, float64(workload.MaxSpecSeconds), v)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v <= workload.MaxSpecSeconds }
	if cf.Regions != nil && *cf.Regions < 1 {
		return fmt.Errorf("config: regions must be >= 1, got %d", *cf.Regions)
	}
	if cf.TotalWorkers != nil && *cf.TotalWorkers < 1 {
		return fmt.Errorf("config: total_workers must be >= 1, got %d", *cf.TotalWorkers)
	}
	if cf.SchedulersPerRegion != nil && *cf.SchedulersPerRegion < 1 {
		return fmt.Errorf("config: schedulers_per_region must be >= 1, got %d", *cf.SchedulersPerRegion)
	}
	// Replicas renew their leases every LeaseRenewInterval; a timeout no
	// longer than that redelivers calls that are still running.
	if v := cf.LeaseTimeoutSec; v != nil && (!finite(*v) || time.Duration(*v*float64(time.Second)) <= scheduler.LeaseRenewInterval) {
		return fmt.Errorf("config: lease_timeout_seconds must be finite, above the %gs lease renewal interval and <= %g, got %v",
			scheduler.LeaseRenewInterval.Seconds(), float64(workload.MaxSpecSeconds), *v)
	}
	if v := cf.QueueLocalFrac; v != nil && (!finite(*v) || *v < 0 || *v > 1) {
		return fmt.Errorf("config: queue_local_frac must be in [0,1], got %v", *v)
	}
	if cf.LocalityGroups != nil && *cf.LocalityGroups < 0 {
		return fmt.Errorf("config: locality_groups must be >= 0, got %d", *cf.LocalityGroups)
	}
	if v := cf.CodePushIntervalSec; v != nil && (!finite(*v) || *v < 0) {
		return bad("code_push_interval_seconds", *v, 0)
	}
	if v := cf.UtilTarget; v != nil && (!finite(*v) || *v <= 0 || *v > 1) {
		return fmt.Errorf("config: utilization_target must be in (0,1], got %v", *v)
	}
	if t := cf.Trace; t != nil && t.SampleEvery != nil && *t.SampleEvery == 0 {
		return fmt.Errorf("config: trace.sample_every must be >= 1 (use trace.enabled=false to disable)")
	}
	if i := cf.Invariants; i != nil && i.IntervalSec != nil {
		if v := *i.IntervalSec; !finite(v) || v <= 0 {
			return bad("invariants.interval_seconds", v, 0)
		}
	}
	return nil
}

// Apply overlays the present overrides onto base and returns the result.
func (cf *ConfigFile) Apply(base Config) Config {
	cfg := base
	set(&cfg.Seed, cf.Seed)
	set(&cfg.Cluster.Regions, cf.Regions)
	set(&cfg.Cluster.TotalWorkers, cf.TotalWorkers)
	set(&cfg.SchedulersPerRegion, cf.SchedulersPerRegion)
	setSeconds(&cfg.LeaseTimeout, cf.LeaseTimeoutSec)
	set(&cfg.QueueLocalFrac, cf.QueueLocalFrac)
	set(&cfg.LocalityGroups, cf.LocalityGroups)
	set(&cfg.EnableGTC, cf.EnableGTC)
	setSeconds(&cfg.CodePushInterval, cf.CodePushIntervalSec)
	if cf.SpikyClients != nil {
		cfg.SpikyClients = cf.SpikyClients
	}
	set(&cfg.PrewarmJIT, cf.PrewarmJIT)
	set(&cfg.Util.Target, cf.UtilTarget)
	if t := cf.Trace; t != nil {
		set(&cfg.Trace.Enabled, t.Enabled)
		set(&cfg.Trace.SampleEvery, t.SampleEvery)
	}
	if i := cf.Invariants; i != nil {
		set(&cfg.Invariants.Enabled, i.Enabled)
		setSeconds(&cfg.Invariants.Interval, i.IntervalSec)
	}
	return cfg
}

// set overwrites *dst with an override that is present.
func set[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}

// setSeconds is set for an override given in seconds.
func setSeconds(dst *time.Duration, v *float64) {
	if v != nil {
		*dst = time.Duration(*v * float64(time.Second))
	}
}

// LoadConfig parses data and applies it to base in one step. The merged
// topology is validated too: overrides that each pass on their own can
// still ask for fewer workers than regions.
func LoadConfig(data []byte, base Config) (Config, error) {
	cf, err := ParseConfigFile(data)
	if err != nil {
		return base, err
	}
	cfg := cf.Apply(base)
	if err := cfg.Cluster.Validate(); err != nil {
		return base, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}
