package scheduler

import (
	"container/heap"
	"testing"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
)

// refBuffer is the container/heap FuncBuffer the slot heap replaced, kept
// verbatim (less the shedding spell and the hedge estimator) as the
// reference the fuzz and seeded programs hold it to.
type refBuffer struct {
	h refHeap
}

func (b *refBuffer) Len() int { return len(b.h) }

func (b *refBuffer) Push(c *function.Call) { heap.Push(&b.h, c) }

func (b *refBuffer) Peek() *function.Call {
	if len(b.h) == 0 {
		return nil
	}
	return b.h[0]
}

func (b *refBuffer) Pop() *function.Call {
	if len(b.h) == 0 {
		return nil
	}
	return heap.Pop(&b.h).(*function.Call)
}

type refHeap []*function.Call

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return Less(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*function.Call)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// refSpecs are one function at three criticalities, as a re-registration
// leaves calls of each in one buffer.
func refSpecs() []*function.Spec {
	return []*function.Spec{
		rigSpec("f", function.CritLow), rigSpec("f", function.CritNormal), rigSpec("f", function.CritHigh),
	}
}

// refDeadlines are the key's deadline range ends (0, 1, 2^62−1) and
// coarse buckets that make calls share a deadline.
var refDeadlines = []sim.Time{0, 1, 1<<62 - 1, 1<<62 - 2, time.Hour, 2 * time.Hour, time.Hour, 2 * time.Hour}

// runBufferAgainstReference interprets prog as FuncBuffer operations on
// the slot heap and the reference, comparing after every step the call
// pointer a Peek or Pop returns and Len(), then drains both. Op byte o:
//
//	o%4 == 0  push a new call: criticality (o>>2)%3, deadline
//	          refDeadlines[(o>>2)/3%8], ID the next byte (so IDs repeat)
//	o%4 == 1  push a copy of made call (o>>2)%len(made): a second Call
//	          object with the same ID and key, as a crash replay makes
//	o%4 == 2  pop
//	o%4 == 3  peek
func runBufferAgainstReference(t *testing.T, prog []byte) {
	specs := refSpecs()
	b, ref := NewFuncBuffer(specs[0]), &refBuffer{}
	var made []*function.Call
	agree := func(step int, what string, got, want *function.Call) {
		t.Helper()
		if got != want {
			t.Fatalf("step %d: %s = %p, reference %p", step, what, got, want)
		}
		if b.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, reference %d", step, b.Len(), ref.Len())
		}
	}
	for i := 0; i < len(prog); i++ {
		o := prog[i]
		switch o % 4 {
		case 0:
			arg := int(o >> 2)
			c := &function.Call{Spec: specs[arg%3], Deadline: refDeadlines[arg/3%8]}
			if i+1 < len(prog) {
				i++
				c.ID = uint64(prog[i])
			}
			made = append(made, c)
			b.Push(c)
			ref.Push(c)
		case 1:
			if len(made) == 0 {
				continue
			}
			cl := *made[int(o>>2)%len(made)]
			b.Push(&cl)
			ref.Push(&cl)
		case 2:
			agree(i, "Pop", b.Pop(), ref.Pop())
		case 3:
			agree(i, "Peek", b.Peek(), ref.Peek())
		}
	}
	for ref.Len() > 0 {
		agree(len(prog), "draining Pop", b.Pop(), ref.Pop())
	}
	agree(len(prog), "Pop on empty", b.Pop(), nil)
}

func FuzzFuncBufferMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) { runBufferAgainstReference(t, prog) })
}

// TestFuncBufferMatchesReference runs seeded programs: three pushes to
// each pop, so the heap grows several levels deep, and IDs drawn from 0–7
// make equal keys common.
func TestFuncBufferMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		src := rng.New(seed)
		var prog []byte
		for len(prog) < 600 {
			o := byte(src.Intn(64)) << 2
			switch r := src.Float64(); {
			case r < 0.5:
				prog = append(prog, o, byte(src.Intn(8)))
				continue
			case r < 0.7:
				o |= 1
			case r < 0.9:
				o |= 2
			default:
				o |= 3
			}
			prog = append(prog, o)
		}
		runBufferAgainstReference(t, prog)
	}
}

// TestKeyOrderIsLess: on every pair from the key's domain — the three
// criticalities, the deadline range's ends, shared deadlines, equal and
// distinct IDs — the slot order is Less.
func TestKeyOrderIsLess(t *testing.T) {
	var calls []*function.Call
	for _, spec := range refSpecs() {
		for _, d := range refDeadlines[:5] {
			for id := uint64(1); id <= 2; id++ {
				calls = append(calls, &function.Call{ID: id, Spec: spec, Deadline: d})
			}
		}
	}
	for _, a := range calls {
		for _, b := range calls {
			if got, want := keyOf(a).before(keyOf(b)), Less(a, b); got != want {
				t.Fatalf("before(%v %v #%d, %v %v #%d) = %v, Less says %v",
					a.Criticality(), a.Deadline, a.ID, b.Criticality(), b.Deadline, b.ID, got, want)
			}
		}
	}
}
