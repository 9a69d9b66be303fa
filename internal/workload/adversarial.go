package workload

import (
	"fmt"
	"math"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
)

// StormMixConfig shapes the retry-storm workload: an aggressor cohort of
// high-criticality functions that call a (scripted-to-fail) downstream on
// every invocation, sharing the worker fleet with a clean reserved cohort
// that never touches the downstream. The aggressors are deliberately
// reserved and high-criticality — the paper's point is that retry
// amplification from important work tramples everyone, which is why the
// retry budget binds regardless of quota class.
type StormMixConfig struct {
	// StormFunctions aggressors each offer StormRPSPerFunc against
	// Downstream, with a generous retry policy (the storm fuel).
	StormFunctions  int
	StormRPSPerFunc float64
	Downstream      string
	// CleanFunctions victims each offer CleanRPSPerFunc of ordinary
	// reserved work with no downstream dependency.
	CleanFunctions  int
	CleanRPSPerFunc float64
}

// stormRetry is the aggressors' redelivery policy; a high attempt count
// with a short base backoff is what makes the storm build.
var stormRetry = function.RetryPolicy{MaxAttempts: 50, Backoff: 2 * time.Second}

const (
	// stormDeadline bounds each aggressor call's useful life.
	stormDeadline time.Duration = 20 * time.Minute
	// stormExecSecs is the nominal execution time of every call in the
	// storm mix (failures occupy workers for the full duration under
	// FailureSlowdown=1, so this sets the storm's cost per delivery).
	stormExecSecs float64 = 2.0
)

// DefaultStormMix returns the scenario-library storm mix against the
// named downstream.
func DefaultStormMix(downstream string) StormMixConfig {
	return StormMixConfig{
		StormFunctions:  8,
		StormRPSPerFunc: 0.5,
		Downstream:      downstream,
		CleanFunctions:  8,
		CleanRPSPerFunc: 0.5,
	}
}

// BuildStormMix instantiates the storm mix into pop. Aggressors are named
// storm-NN, victims clean-NN.
func BuildStormMix(pop *Population, cfg StormMixConfig, src *rng.Source) {
	res := steadyResources(stormExecSecs)
	for i := 0; i < cfg.StormFunctions; i++ {
		pop.Add(&function.Spec{
			Name:        fmt.Sprintf("storm-%02d", i),
			Team:        "team-storm",
			Criticality: function.CritHigh,
			QuotaMIPS:   1e9, // quota is not the mechanism under test
			Deadline:    stormDeadline,
			Retry:       stormRetry,
			Downstream:  cfg.Downstream,
			Resources:   res,
		}, cfg.StormRPSPerFunc, src.Split())
	}
	for i := 0; i < cfg.CleanFunctions; i++ {
		pop.Add(&function.Spec{
			Name:        fmt.Sprintf("clean-%02d", i),
			Team:        fmt.Sprintf("team-clean-%02d", i),
			Criticality: function.CritNormal,
			QuotaMIPS:   1e9,
			Deadline:    10 * time.Minute,
			Resources:   res,
		}, cfg.CleanRPSPerFunc, src.Split())
	}
}

// steadyResources is the adversarial mixes' per-call resource model: 10
// MI of CPU and 8 MB of memory per call, and a tight execution time
// around execSecs.
func steadyResources(execSecs float64) function.ResourceModel {
	return function.ResourceModel{
		CPUMu: math.Log(10), CPUSigma: 0.2,
		MemMu: math.Log(8), MemSigma: 0.2,
		TimeMu: math.Log(execSecs), TimeSigma: 0.1,
	}
}

// The noisy-neighbor workload: small reserved tenants with steady traffic,
// plus one Zipf-dominant tenant whose opportunistic function floods during
// a window.
const (
	// NoisyVictims reserved tenants each offer NoisyVictimRPS steadily.
	NoisyVictims   int     = 6
	NoisyVictimRPS float64 = 1.0
	// NoisyFloodStart/NoisyFloodLen/NoisyFloodRPS shape the noisy
	// tenant's burst.
	NoisyFloodStart time.Duration = 20 * time.Minute
	NoisyFloodLen   time.Duration = 40 * time.Minute
	NoisyFloodRPS   float64       = 60
	// noisyDeadline is the flood calls' deadline (sets the shed target
	// via deadline/4).
	noisyDeadline time.Duration = 20 * time.Minute
	// noisyExecSecs is the nominal execution time across the mix.
	noisyExecSecs float64 = 1.0
)

// BuildNoisyNeighbor instantiates the noisy-neighbor mix into pop. The
// noisy tenant's function is named noisy-00; victims victim-NN.
func BuildNoisyNeighbor(pop *Population, src *rng.Source) {
	res := steadyResources(noisyExecSecs)
	for i := 0; i < NoisyVictims; i++ {
		pop.Add(&function.Spec{
			Name:        fmt.Sprintf("victim-%02d", i),
			Team:        fmt.Sprintf("team-victim-%02d", i),
			Criticality: function.CritNormal,
			QuotaMIPS:   1e9,
			Deadline:    10 * time.Minute,
			Resources:   res,
		}, NoisyVictimRPS, src.Split())
	}
	flood := pop.Add(&function.Spec{
		Name:        "noisy-00",
		Team:        "team-noisy",
		Criticality: function.CritLow,
		Quota:       function.QuotaOpportunistic,
		QuotaMIPS:   NoisyFloodRPS * 10 * 2, // loose: quota is not the valve under test
		Deadline:    noisyDeadline,
		Resources:   res,
	}, 0, src.Split())
	flood.Burst = &Burst{
		Every:  1000 * time.Hour, // one-shot within any experiment window
		Offset: 1000*time.Hour - NoisyFloodStart,
		Len:    NoisyFloodLen,
		RPS:    NoisyFloodRPS,
	}
}

// GrayMixConfig shapes the gray-tail workload: a steady population of
// site-critical functions with tight, low-variance execution times — the
// traffic whose tail latency a subtly degraded worker wrecks without ever
// tripping a heartbeat probe.
type GrayMixConfig struct {
	// Functions CritHigh functions each offer RPSPerFunc steadily.
	Functions  int
	RPSPerFunc float64
}

// grayExecSecs is the gray-tail mix's nominal execution time; the low
// sigma in BuildGrayMix keeps healthy exec times tight so a 3× inflation
// is unambiguous.
const grayExecSecs float64 = 1.0

// DefaultGrayMix returns the scenario-library gray-tail mix.
func DefaultGrayMix() GrayMixConfig {
	return GrayMixConfig{Functions: 12, RPSPerFunc: 1.0}
}

// BuildGrayMix instantiates the gray-tail mix into pop. Functions are
// named crit-NN.
func BuildGrayMix(pop *Population, cfg GrayMixConfig, src *rng.Source) {
	res := steadyResources(grayExecSecs)
	for i := 0; i < cfg.Functions; i++ {
		pop.Add(&function.Spec{
			Name:        fmt.Sprintf("crit-%02d", i),
			Team:        fmt.Sprintf("team-crit-%02d", i),
			Criticality: function.CritHigh,
			QuotaMIPS:   1e9,
			Deadline:    10 * time.Minute,
			Resources:   res,
		}, cfg.RPSPerFunc, src.Split())
	}
}
