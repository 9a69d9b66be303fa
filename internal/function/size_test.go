package function

import (
	"testing"
	"unsafe"
)

// A Call is allocated once per invocation on every workload. At 152 bytes
// it sits in Go's 160-byte size class with one word to spare: two more
// words move every call to the 176-byte class, 16 bytes per call on every
// workload.
func TestCallStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Call{}); size > 160 {
		t.Fatalf("function.Call is %d bytes, want at most 160", size)
	}
}
