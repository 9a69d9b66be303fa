package workload

import (
	"math"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
)

// NamedWorkload is one of the paper's Table 2 example workloads. Each
// workload comprises several functions; the table reports min and max of
// CPU usage, memory usage, and execution time across them. The exact
// numeric cells of Table 2 are elided in our copy of the paper, so the
// presets below are reconstructed from the prose (§3.2): Falco is
// event-triggered log processing with a 15s-average SLO; Morphing runs
// for minutes and consumes orders of magnitude more CPU than ordinary
// functions; Notification fires on preset schedules; etc.
type NamedWorkload struct {
	Name      string
	Trigger   function.TriggerType
	Functions int
	// Per-function ranges the preset draws medians from.
	CPUMin, CPUMax   float64 // millions of instructions per call
	MemMin, MemMax   float64 // MB
	TimeMin, TimeMax float64 // seconds
	MeanRPSPerFunc   float64
	Quota            function.QuotaType
	Deadline         time.Duration
	Ephemeral        bool
	Downstream       string
}

// NamedWorkloads returns the five Table 2 presets.
func NamedWorkloads() []NamedWorkload {
	return []NamedWorkload{
		{
			Name: "recommendation", Trigger: function.TriggerQueue, Functions: 6,
			CPUMin: 50, CPUMax: 2500, MemMin: 32, MemMax: 512,
			TimeMin: 0.3, TimeMax: 20, MeanRPSPerFunc: 12,
			Quota: function.QuotaReserved, Deadline: 2 * time.Minute,
			Downstream: "tao",
		},
		{
			Name: "falco", Trigger: function.TriggerEvent, Functions: 8,
			CPUMin: 1, CPUMax: 60, MemMin: 4, MemMax: 64,
			TimeMin: 0.05, TimeMax: 3, MeanRPSPerFunc: 80,
			Quota: function.QuotaReserved, Deadline: 15 * time.Second,
		},
		{
			Name: "productivity-bot", Trigger: function.TriggerEvent, Functions: 5,
			CPUMin: 2, CPUMax: 120, MemMin: 8, MemMax: 96,
			TimeMin: 0.1, TimeMax: 8, MeanRPSPerFunc: 4,
			Quota: function.QuotaOpportunistic, Deadline: 24 * time.Hour,
		},
		{
			Name: "notification", Trigger: function.TriggerTimer, Functions: 4,
			CPUMin: 10, CPUMax: 900, MemMin: 16, MemMax: 256,
			TimeMin: 0.5, TimeMax: 120, MeanRPSPerFunc: 2,
			Quota: function.QuotaOpportunistic, Deadline: 24 * time.Hour,
		},
		{
			Name: "morphing", Trigger: function.TriggerQueue, Functions: 8,
			CPUMin: 5e4, CPUMax: 2e6, MemMin: 512, MemMax: 4096,
			TimeMin: 60, TimeMax: 600, MeanRPSPerFunc: 0.05,
			Quota: function.QuotaOpportunistic, Deadline: 24 * time.Hour,
			Ephemeral: true,
		},
	}
}

// BuildNamed instantiates a preset's functions and models into a
// population (appending to pop).
func BuildNamed(pop *Population, w NamedWorkload, src *rng.Source) {
	for i := 0; i < w.Functions; i++ {
		// Spread function medians log-uniformly across the preset range.
		frac := float64(i) / math.Max(1, float64(w.Functions-1))
		cpu := logInterp(w.CPUMin, w.CPUMax, frac)
		mem := logInterp(w.MemMin, w.MemMax, frac)
		secs := logInterp(w.TimeMin, w.TimeMax, frac)
		pop.Add(&function.Spec{
			Name:        w.Name + "-" + string(rune('a'+i)),
			Team:        "team-" + w.Name,
			Trigger:     w.Trigger,
			Criticality: function.CritNormal,
			Quota:       w.Quota,
			Deadline:    w.Deadline,
			Ephemeral:   w.Ephemeral,
			Downstream:  w.Downstream,
			Resources: function.ResourceModel{
				CPUMu: math.Log(cpu), CPUSigma: 0.5,
				MemMu: math.Log(mem), MemSigma: 0.4,
				TimeMu: math.Log(secs), TimeSigma: 0.4,
				CodeMB: 16, JITCodeMB: 6,
			},
		}, w.MeanRPSPerFunc, src.Split())
	}
}

func logInterp(lo, hi, frac float64) float64 {
	return math.Exp(math.Log(lo) + frac*(math.Log(hi)-math.Log(lo)))
}
