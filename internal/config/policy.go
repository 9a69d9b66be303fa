package config

import (
	"fmt"
	"slices"
)

// Shipped scheduling-policy names. A policy is chosen by name alone; each
// policy's knobs are typed constants of internal/policy.
const (
	// PolicyPush is the paper's push/lease scheduler: poll → shed →
	// criticality-major admission → power-of-two push dispatch. It is the
	// default and its seeded output is byte-identical to the pre-policy
	// scheduler.
	PolicyPush = "push"
	// PolicyPull is Hiku-style pull scheduling: idle workers pull the
	// next admitted call from the per-criticality queues instead of the
	// WorkerLB pushing to two random choices.
	PolicyPull = "pull"
	// PolicyPrewarm is predictive pre-warm/pre-push: a Holt-Winters
	// forecaster over per-tick arrivals scales the poll budget ahead of
	// forecast spikes and pre-warms the hottest functions' JIT state.
	PolicyPrewarm = "prewarm"
	// PolicySPES is an SPES-style performance-vs-resource knob: one
	// parameter trades spare-capacity headroom and retry pacing against
	// cold-start exposure.
	PolicySPES = "spes"
)

// PolicyNames lists every shipped policy, in stable order.
func PolicyNames() []string {
	return []string{PolicyPush, PolicyPull, PolicyPrewarm, PolicySPES}
}

// CheckPolicy rejects a name that is not a shipped policy. The empty name
// is legal and means push.
func CheckPolicy(name string) error {
	if name != "" && !slices.Contains(PolicyNames(), name) {
		return fmt.Errorf("policy: unknown policy %q", name)
	}
	return nil
}
