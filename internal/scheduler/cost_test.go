package scheduler

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

// The cost model these tests pin: a FuncBuffer comparison reads two
// 16-byte slots, not the calls they point to, and a buffer that has
// reached its size reuses its slots.

func TestBufferSlotIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(buffered{}); got != 16 {
		t.Fatalf("FuncBuffer slot = %d B, want 16: a wider slot grows every backlog", got)
	}
}

func TestFuncBufferSteadyStateAllocatesNothing(t *testing.T) {
	specs := refSpecs()
	b := NewFuncBuffer(specs[0])
	for i := 0; i < 100; i++ {
		b.Push(&function.Call{ID: uint64(i), Spec: specs[i%3], Deadline: sim.Time(i%7) * time.Second})
	}
	if got := testing.AllocsPerRun(100, func() { b.Push(b.Pop()) }); got != 0 {
		t.Fatalf("Push+Pop at steady capacity allocates %v times", got)
	}
}

// BenchmarkFuncBufferPop pops the head and pushes it back later in the
// order, over n calls allocated apart from each other, as a backlog's
// calls are: each call sits on its own cache lines.
func BenchmarkFuncBufferPop(b *testing.B) {
	for _, n := range []int{64, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			specs := refSpecs()
			buf := NewFuncBuffer(specs[0])
			apart := make([][]byte, n)
			for i := 0; i < n; i++ {
				apart[i] = make([]byte, 1024)
				buf.Push(&function.Call{ID: uint64(i), Spec: specs[i%3], Deadline: sim.Time(i%16) * time.Second})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := buf.Pop()
				c.Deadline += 16 * time.Second
				buf.Push(c)
			}
			runtime.KeepAlive(apart)
		})
	}
}
