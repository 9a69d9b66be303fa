package function

import (
	"testing"
	"unsafe"
)

// A Call is allocated once per invocation on every workload, from Go's
// 176-byte size class. The observer slot (Obs, an interface) took the last
// spare word of that class: one more word moves every call to the
// 192-byte class, 16 bytes per call on every workload.
func TestCallStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Call{}); size > 176 {
		t.Fatalf("function.Call is %d bytes, want at most 176", size)
	}
}
