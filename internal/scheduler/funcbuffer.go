package scheduler

import "xfaas/internal/function"

// FuncBuffer is the in-memory per-function buffer of pending calls (paper
// §4.4), ordered first by criticality (higher first) and then by
// completion deadline (earlier first). Calls for the same function pulled
// from different DurableQs merge into one buffer. It also owns the
// function's shedding spell and hedge-delay estimator (nil until a success).
type FuncBuffer struct {
	spec *function.Spec
	h    []buffered // binary min-heap under buffered.before
	shed shedState
	est  *hedgeEstimator
}

// buffered is one heap slot: the call and its order key, so a comparison
// reads the slots and not the calls (each a cold line, and its criticality
// one more pointer away on the spec). The key packs criticality above the
// deadline, key = (CritHigh−crit)<<62 | Deadline, and is exact: shedTarget
// is indexed by criticality, so CritLow ≤ crit ≤ CritHigh and the top two
// bits hold it; Submit sets Deadline = StartAfter + Spec.Deadline with
// StartAfter ≥ now ≥ 0 and Validate keeping Spec.Deadline in (0, 24 h], so
// every deadline lies in [0, 2^62). Only equal keys read the calls' IDs.
type buffered struct {
	key uint64
	c   *function.Call
}

func keyOf(c *function.Call) buffered {
	return buffered{uint64(function.CritHigh-c.Criticality())<<62 | uint64(c.Deadline), c}
}

// before is Less on slots.
func (a buffered) before(b buffered) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.c.ID < b.c.ID
}

// NewFuncBuffer returns an empty buffer for spec.
func NewFuncBuffer(spec *function.Spec) *FuncBuffer {
	return &FuncBuffer{spec: spec}
}

// Spec returns the buffer's function.
func (b *FuncBuffer) Spec() *function.Spec { return b.spec }

// Len returns the number of buffered calls.
func (b *FuncBuffer) Len() int { return len(b.h) }

// Push inserts a call. Push and Pop take container/heap's steps — parent
// (j−1)/2, stop at a slot not before its parent, the left child kept on
// ties — moving a hole instead of swapping: the same comparisons, so two
// calls with one ID (a crash replay) pop in the same order.
func (b *FuncBuffer) Push(c *function.Call) {
	x, j := keyOf(c), len(b.h)
	b.h = append(b.h, x)
	for ; j > 0 && x.before(b.h[(j-1)/2]); j = (j - 1) / 2 {
		b.h[j] = b.h[(j-1)/2]
	}
	b.h[j] = x
}

// Peek returns the highest-priority call without removing it (nil when
// empty).
func (b *FuncBuffer) Peek() *function.Call {
	if len(b.h) == 0 {
		return nil
	}
	return b.h[0].c
}

// Pop removes and returns the highest-priority call (nil when empty).
func (b *FuncBuffer) Pop() *function.Call {
	h, n := b.h, len(b.h)-1
	if n < 0 {
		return nil
	}
	top, x, i := h[0].c, h[n], 0
	for j := 1; j < n; j = 2*i + 1 {
		if j+1 < n && h[j+1].before(h[j]) {
			j++
		}
		if !h[j].before(x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i], h[n] = x, buffered{}
	b.h = h[:n]
	return top
}

// Less orders calls: criticality-major (descending), deadline-minor
// (ascending), ID tiebreak for determinism. Exported for property tests.
func Less(a, b *function.Call) bool {
	if a.Criticality() != b.Criticality() {
		return a.Criticality() > b.Criticality()
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}
