package cpu

import (
	"testing"
	"unsafe"
)

// TestPrefetchChangesNothing: hints to live lines and to nil return and
// leave memory as it was.
func TestPrefetchChangesNothing(t *testing.T) {
	buf := make([]uint64, 64)
	for i := range buf {
		buf[i] = uint64(i)
	}
	for i := range buf {
		Prefetch(unsafe.Pointer(&buf[i]))
	}
	Prefetch(nil)
	for i, v := range buf {
		if v != uint64(i) {
			t.Fatalf("buf[%d] = %d after Prefetch", i, v)
		}
	}
}
