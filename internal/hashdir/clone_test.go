package hashdir

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestCloneIndependence checks that a clone is a full deep copy of the
// table's own state: mutating either side never shows through the other.
func TestCloneIndependence(t *testing.T) {
	orig := New[int]()
	for i := 0; i < 100; i++ {
		orig.Put([]byte(fmt.Sprintf("k%02d", i)), i)
	}
	snap := orig.Clone()

	// Diverge both sides.
	for i := 0; i < 50; i++ {
		orig.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	for i := 100; i < 140; i++ {
		orig.Put([]byte(fmt.Sprintf("k%02d", i)), i)
	}
	snap.Put([]byte("only-in-clone"), -1)

	if snap.Len() != 101 {
		t.Fatalf("clone Len = %d, want 101", snap.Len())
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("k%02d", i))
		if v, ok := snap.Get(k); !ok || v != i {
			t.Fatalf("clone lost %q (%d,%v)", k, v, ok)
		}
	}
	if _, ok := orig.Get([]byte("only-in-clone")); ok {
		t.Fatal("clone insertion leaked into the original")
	}
	if _, ok := orig.Get([]byte("k00")); ok {
		t.Fatal("original delete did not take")
	}

	// The sorted key lists must have diverged, too.
	if got := len(snap.SortedKeys()); got != 101 {
		t.Fatalf("clone has %d sorted keys, want 101", got)
	}
	if got := len(orig.SortedKeys()); got != 90 {
		t.Fatalf("original has %d sorted keys, want 90", got)
	}
}

// TestDRAMBytesMatchesLayout pins DRAMBytes to the real layout: segment
// headers, slot arrays, and the sorted list only once it is built.
func TestDRAMBytesMatchesLayout(t *testing.T) {
	tb := New[uint64]()
	// A power-of-two header stride keeps Get's segment index a shift.
	if sz := unsafe.Sizeof(tb.segs[0]); sz != 32 {
		t.Fatalf("segment header is %d B, want 32", sz)
	}
	headers := int64(unsafe.Sizeof(tb.segs))
	per := int64(unsafe.Sizeof(slot[uint64]{}))
	if got := tb.DRAMBytes(); got != headers {
		t.Fatalf("empty DRAMBytes = %d, want %d (headers only, no slots)", got, headers)
	}
	tb.Put([]byte("ab"), 1)
	want := headers + minSegBuckets*per
	if got := tb.DRAMBytes(); got != want {
		t.Fatalf("DRAMBytes = %d, want %d before the sorted list is built", got, want)
	}
	tb.SortedKeys()
	want += int64(unsafe.Sizeof("")) + 2
	if got := tb.DRAMBytes(); got != want {
		t.Fatalf("DRAMBytes = %d, want %d with the sorted list", got, want)
	}
}
