package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
)

// SpecFile is the on-disk workload description: a JSON document listing
// functions with their resource shapes and arrival dynamics. xfaasd
// loads one with -workload to pre-register a population at boot, and
// httpapi's POST /functions body is a single FuncSpec, so the two entry
// points share one schema and one validator.
type SpecFile struct {
	Functions []FuncSpec `json:"functions"`
}

// FuncSpec describes one function. The zero value of every optional
// field means "use the default"; see the field comments for defaults.
type FuncSpec struct {
	Name        string  `json:"name"`
	Criticality string  `json:"criticality,omitempty"`         // low|normal|high (default normal)
	Quota       string  `json:"quota,omitempty"`               // reserved|opportunistic (default reserved)
	QuotaMIPS   float64 `json:"quota_mips,omitempty"`          // 0 = unlimited
	DeadlineSec float64 `json:"deadline_seconds,omitempty"`    // default 300 (reserved) / 86400 (opportunistic)
	Concurrency int     `json:"concurrency_limit,omitempty"`   // 0 = unlimited
	CPUMedianM  float64 `json:"cpu_median_minstr,omitempty"`   // default 20
	MemMedianMB float64 `json:"mem_median_mb,omitempty"`       // default 16
	ExecMedianS float64 `json:"exec_median_seconds,omitempty"` // default 0.2
	Team        string  `json:"team,omitempty"`                // submitting client identity (default "http")

	// Arrival dynamics (used when the spec file drives a generator;
	// ignored by the HTTP register endpoint, which invokes explicitly).
	MeanRPS         float64    `json:"mean_rps,omitempty"`          // 0 = registered but silent
	DiurnalAmp      float64    `json:"diurnal_amplitude,omitempty"` // 0..1 day-cycle modulation
	FutureStartFrac float64    `json:"future_start_frac,omitempty"` // share of calls with a delayed start
	Burst           *BurstSpec `json:"burst,omitempty"`             // replaces the rate model entirely
}

// BurstSpec is an on/off spiky arrival pattern (Figure 4's shape).
type BurstSpec struct {
	EverySec  float64 `json:"every_seconds"`
	OffsetSec float64 `json:"offset_seconds,omitempty"`
	LenSec    float64 `json:"len_seconds"`
	RPS       float64 `json:"rps"`
}

// ParseSpecFile strictly decodes and validates a workload spec. Unknown
// fields are errors — a typo'd field name silently meaning "default"
// has burned everyone at least once.
func ParseSpecFile(data []byte) (*SpecFile, error) {
	var sf SpecFile
	if err := DecodeStrict(bytes.NewReader(data), &sf); err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	return &sf, nil
}

// DecodeStrict decodes exactly one JSON document from r into v: an
// unknown field is an error, and so is anything after the document but
// white space. Spec files, config files and HTTP bodies all decode
// through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// Validate checks the whole file: every function valid, names unique.
func (sf *SpecFile) Validate() error {
	if len(sf.Functions) == 0 {
		return fmt.Errorf("workload spec: no functions")
	}
	seen := make(map[string]bool, len(sf.Functions))
	for i := range sf.Functions {
		fs := &sf.Functions[i]
		if err := fs.Validate(); err != nil {
			return fmt.Errorf("function %d (%q): %w", i, fs.Name, err)
		}
		if seen[fs.Name] {
			return fmt.Errorf("function %d: duplicate name %q", i, fs.Name)
		}
		seen[fs.Name] = true
	}
	return nil
}

// finite rejects the NaN/Inf values that can arrive through code paths
// that build a FuncSpec directly rather than via JSON.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// MaxSpecSeconds bounds duration-in-seconds fields, here and in HTTP
// requests, so conversion to time.Duration cannot overflow (~31 years);
// maxSpecRPS bounds arrival rates so a generator tick stays tractable.
const (
	MaxSpecSeconds = 1e9
	maxSpecRPS     = 1e6
)

// Validate checks one function spec.
func (fs *FuncSpec) Validate() error {
	if fs.Name == "" {
		return fmt.Errorf("name required")
	}
	if _, ok := critOf[fs.Criticality]; !ok {
		return fmt.Errorf("criticality must be low|normal|high, got %q", fs.Criticality)
	}
	if _, ok := quotaOf[fs.Quota]; !ok {
		return fmt.Errorf("quota must be reserved|opportunistic, got %q", fs.Quota)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"quota_mips", fs.QuotaMIPS}, {"deadline_seconds", fs.DeadlineSec},
		{"cpu_median_minstr", fs.CPUMedianM}, {"mem_median_mb", fs.MemMedianMB},
		{"exec_median_seconds", fs.ExecMedianS}, {"mean_rps", fs.MeanRPS},
		{"diurnal_amplitude", fs.DiurnalAmp}, {"future_start_frac", fs.FutureStartFrac},
	} {
		if !finite(f.v) || f.v < 0 {
			return fmt.Errorf("%s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	if fs.Concurrency < 0 {
		return fmt.Errorf("concurrency_limit must be non-negative, got %d", fs.Concurrency)
	}
	if fs.DeadlineSec > MaxSpecSeconds {
		return fmt.Errorf("deadline_seconds must be <= %g, got %v", float64(MaxSpecSeconds), fs.DeadlineSec)
	}
	if fs.MeanRPS > maxSpecRPS {
		return fmt.Errorf("mean_rps must be <= %g, got %v", float64(maxSpecRPS), fs.MeanRPS)
	}
	if fs.DiurnalAmp > 1 {
		return fmt.Errorf("diurnal_amplitude must be in [0,1], got %v", fs.DiurnalAmp)
	}
	if fs.FutureStartFrac > 1 {
		return fmt.Errorf("future_start_frac must be in [0,1], got %v", fs.FutureStartFrac)
	}
	if b := fs.Burst; b != nil {
		if !finite(b.EverySec) || !finite(b.OffsetSec) || !finite(b.LenSec) || !finite(b.RPS) {
			return fmt.Errorf("burst fields must be finite")
		}
		if b.EverySec <= 0 || b.LenSec <= 0 || b.RPS <= 0 || b.OffsetSec < 0 {
			return fmt.Errorf("burst requires every_seconds>0, len_seconds>0, rps>0, offset_seconds>=0")
		}
		if b.LenSec > b.EverySec {
			return fmt.Errorf("burst len_seconds (%v) exceeds every_seconds (%v)", b.LenSec, b.EverySec)
		}
		if b.EverySec > MaxSpecSeconds || b.OffsetSec > MaxSpecSeconds {
			return fmt.Errorf("burst periods must be <= %g seconds", float64(MaxSpecSeconds))
		}
		if b.RPS > maxSpecRPS {
			return fmt.Errorf("burst rps must be <= %g, got %v", float64(maxSpecRPS), b.RPS)
		}
	}
	// Whatever the platform's registry would refuse fails here, before
	// anything is built from the file.
	return fs.Spec().Validate()
}

// critOf and quotaOf read the names a FuncSpec may give; "" is the
// default.
var (
	critOf  = map[string]function.Criticality{"": function.CritNormal, "low": function.CritLow, "normal": function.CritNormal, "high": function.CritHigh}
	quotaOf = map[string]function.QuotaType{"": function.QuotaReserved, "reserved": function.QuotaReserved, "opportunistic": function.QuotaOpportunistic}
)

func orDefault(v, d float64) float64 {
	if v > 0 {
		return v
	}
	return d
}

// Spec materializes the completed function.Spec. Call Validate first;
// Spec assumes the fields Validate checks before it are valid.
func (fs *FuncSpec) Spec() *function.Spec {
	quota := quotaOf[fs.Quota]
	deadline := 300 * time.Second
	if quota == function.QuotaOpportunistic {
		deadline = 24 * time.Hour
	}
	if fs.DeadlineSec > 0 {
		deadline = time.Duration(fs.DeadlineSec * float64(time.Second))
	}
	team := fs.Team
	if team == "" {
		team = "http"
	}
	return Complete(&function.Spec{
		Name:             fs.Name,
		Team:             team,
		Criticality:      critOf[fs.Criticality],
		Quota:            quota,
		QuotaMIPS:        fs.QuotaMIPS,
		Deadline:         deadline,
		ConcurrencyLimit: fs.Concurrency,
		Resources: function.ResourceModel{
			CPUMu: math.Log(orDefault(fs.CPUMedianM, 20)), CPUSigma: 0.5,
			MemMu: math.Log(orDefault(fs.MemMedianMB, 16)), MemSigma: 0.5,
			TimeMu: math.Log(orDefault(fs.ExecMedianS, 0.2)), TimeSigma: 0.5,
		},
	})
}

// Population builds a registry + arrival models from the file, ready for
// NewGenerator. Each model draws per-call resources from a split of src.
func (sf *SpecFile) Population(src *rng.Source) (*Population, error) {
	if err := sf.Validate(); err != nil {
		return nil, err
	}
	pop := &Population{Registry: function.NewRegistry(), TeamOf: make(map[string]string)}
	for i := range sf.Functions {
		fs := &sf.Functions[i]
		m := pop.Add(fs.Spec(), fs.MeanRPS, src.Split())
		m.DiurnalAmp, m.FutureStartFrac = fs.DiurnalAmp, fs.FutureStartFrac
		if b := fs.Burst; b != nil {
			m.Burst = &Burst{
				Every:  time.Duration(b.EverySec * float64(time.Second)),
				Offset: time.Duration(b.OffsetSec * float64(time.Second)),
				Len:    time.Duration(b.LenSec * float64(time.Second)),
				RPS:    b.RPS,
			}
		}
	}
	return pop, nil
}
