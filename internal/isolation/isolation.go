// Package isolation implements the Bell–LaPadula style multilevel
// security / information-flow model XFaaS uses for data isolation across
// functions sharing a Linux process (paper §4.7): data may only flow from
// lower to higher classification levels ("no read up, no write down").
// The scheduler checks each call's argument flow into its function's
// isolation zone before dispatch; nothing else checks flows.
package isolation

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a linear classification level; higher values are more
// sensitive.
type Level int

// Classification levels used across the repository. Platforms may define
// more; only the ordering matters to the model.
const (
	Public Level = iota
	Internal
	Confidential
	Restricted
)

var levelNames = [...]string{"public", "internal", "confidential", "restricted"}

func (l Level) String() string {
	if l >= 0 && int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Zone is an isolation zone: a classification level plus a compartment
// set (need-to-know categories). Zones form a lattice ordered by
// DominatedBy.
type Zone struct {
	Level        Level
	compartments map[string]bool
}

// NewZone returns a zone at the given level with the given compartments.
func NewZone(level Level, compartments ...string) Zone {
	z := Zone{Level: level}
	if len(compartments) > 0 {
		z.compartments = make(map[string]bool, len(compartments))
		for _, c := range compartments {
			z.compartments[c] = true
		}
	}
	return z
}

// DominatedBy reports whether z ⊑ other in the Bell–LaPadula lattice:
// z.Level ≤ other.Level and z's compartments ⊆ other's compartments.
// Data labelled z may flow to a principal labelled other.
func (z Zone) DominatedBy(other Zone) bool {
	if z.Level > other.Level {
		return false
	}
	for c := range z.compartments {
		if !other.compartments[c] {
			return false
		}
	}
	return true
}

func (z Zone) String() string {
	if len(z.compartments) == 0 {
		return z.Level.String()
	}
	cs := make([]string, 0, len(z.compartments))
	for c := range z.compartments {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return z.Level.String() + "{" + strings.Join(cs, ",") + "}"
}

// FlowError describes a rejected information flow.
type FlowError struct {
	From, To Zone
	Op       string
}

func (e *FlowError) Error() string {
	return fmt.Sprintf("isolation: %s from %s to %s violates Bell-LaPadula", e.Op, e.From, e.To)
}

// Checker enforces flow policy at system boundaries. It counts decisions
// so experiments and tests can assert enforcement happened.
type Checker struct {
	Allowed uint64
	Denied  uint64
}

// CheckArgFlow verifies a function call's arguments (labelled src) may
// flow into execution zone dst — the scheduler-side check from §4.7.
func (c *Checker) CheckArgFlow(src, dst Zone) error {
	if src.DominatedBy(dst) {
		c.Allowed++
		return nil
	}
	c.Denied++
	return &FlowError{From: src, To: dst, Op: "argument flow"}
}
