package scheduler

import (
	"container/heap"

	"xfaas/internal/function"
)

// FuncBuffer is the in-memory per-function buffer of pending calls (paper
// §4.4), ordered first by criticality (higher first) and then by
// completion deadline (earlier first). Calls for the same function pulled
// from different DurableQs merge into one buffer. It also owns the
// function's shedding spell and hedge-delay estimator (nil until a success).
type FuncBuffer struct {
	spec *function.Spec
	h    bufferHeap
	shed shedState
	est  *hedgeEstimator
}

// NewFuncBuffer returns an empty buffer for spec.
func NewFuncBuffer(spec *function.Spec) *FuncBuffer {
	return &FuncBuffer{spec: spec}
}

// Spec returns the buffer's function.
func (b *FuncBuffer) Spec() *function.Spec { return b.spec }

// Len returns the number of buffered calls.
func (b *FuncBuffer) Len() int { return len(b.h) }

// Push inserts a call.
func (b *FuncBuffer) Push(c *function.Call) { heap.Push(&b.h, c) }

// Peek returns the highest-priority call without removing it (nil when
// empty).
func (b *FuncBuffer) Peek() *function.Call {
	if len(b.h) == 0 {
		return nil
	}
	return b.h[0]
}

// Pop removes and returns the highest-priority call (nil when empty).
func (b *FuncBuffer) Pop() *function.Call {
	if len(b.h) == 0 {
		return nil
	}
	return heap.Pop(&b.h).(*function.Call)
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

type bufferHeap []*function.Call

func (h bufferHeap) Len() int           { return len(h) }
func (h bufferHeap) Less(i, j int) bool { return Less(h[i], h[j]) }
func (h bufferHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bufferHeap) Push(x any)        { *h = append(*h, x.(*function.Call)) }
func (h *bufferHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}
