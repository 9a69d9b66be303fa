package function

import (
	"testing"
	"unsafe"
)

// A Call is allocated once per invocation on every workload. At 160 bytes
// it fills Go's 160-byte size class with no word to spare: one more word
// moves every call to the 176-byte class, 16 bytes per call on every
// workload. A field added to the Call must reclaim a word first: State
// as a uint8 and Attempt as an int32, for one, would share a word.
func TestCallStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Call{}); size > 160 {
		t.Fatalf("function.Call is %d bytes, want at most 160", size)
	}
}
