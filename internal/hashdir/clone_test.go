package hashdir

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestCloneIndependence checks that a clone shares no state either side
// writes: mutating either side never shows through the other, although
// the two share every page until one of them changes it.
func TestCloneIndependence(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	orig := New[int]()
	for i := 0; i < 100; i++ {
		orig.Put(key(i), i)
	}
	snap := orig.Clone()

	// Diverge both sides.
	for i := 0; i < 50; i++ {
		orig.Delete(key(i))
	}
	for i := 0; i < 40; i++ {
		orig.Put([]byte{'n', byte(i)}, i)
	}
	orig.Put(key(99), -99)
	snap.Put([]byte("cln"), -1)

	if snap.Len() != 101 {
		t.Fatalf("clone Len = %d, want 101", snap.Len())
	}
	for i := 0; i < 100; i++ {
		if v, ok := snap.Get(key(i)); !ok || v != i {
			t.Fatalf("clone lost %q (%d,%v)", key(i), v, ok)
		}
	}
	if _, ok := orig.Get([]byte("cln")); ok {
		t.Fatal("clone insertion leaked into the original")
	}
	if _, ok := orig.Get(key(0)); ok {
		t.Fatal("original delete did not take")
	}
	if orig.Len() != 90 {
		t.Fatalf("original Len = %d, want 90", orig.Len())
	}
	if n := len(rangeKeys(snap)); n != 101 {
		t.Fatalf("clone ranges over %d keys, want 101", n)
	}
	if n := len(rangeKeys(orig)); n != 90 {
		t.Fatalf("original ranges over %d keys, want 90", n)
	}
}

// TestDRAMBytesMatchesLayout pins DRAMBytes to the real layout: the table,
// and below its root one node per prefix, one kids array per node with
// children, and one page per prefix with keys.
func TestDRAMBytesMatchesLayout(t *testing.T) {
	tb := New[uint64]()
	var (
		table = int64(unsafe.Sizeof(*tb))
		nd    = int64(unsafe.Sizeof(node[uint64]{}))
		kids  = int64(256 * unsafe.Sizeof(tb.root.kids))
		pg    = int64(unsafe.Sizeof(page[uint64]{}))
	)
	if pg != 32+256*8 {
		t.Fatalf("a page is %d B, want its 4-word bitmap and 256 values", pg)
	}
	if got := tb.DRAMBytes(); got != table {
		t.Fatalf("empty DRAMBytes = %d, want %d (the table alone)", got, table)
	}
	tb.Put([]byte("a"), 1) // the root's page
	if got, want := tb.DRAMBytes(), table+pg; got != want {
		t.Fatalf("DRAMBytes = %d, want %d with one page", got, want)
	}
	tb.Put([]byte("ab"), 1) // the root's kids, node "a" and its page
	tb.Put([]byte("ac"), 1) // the same page
	want := table + pg + kids + nd + pg
	if got := tb.DRAMBytes(); got != want {
		t.Fatalf("DRAMBytes = %d, want %d with two levels", got, want)
	}
	// The benchmark's directory: 62 pages of two-byte keys.
	tb = New[uint64]()
	for i, k := range pairKeys(alphabet62) {
		tb.Put(k, uint64(i))
	}
	if got, want := tb.DRAMBytes(), table+kids+62*(nd+pg); got != want || got > 140000 {
		t.Fatalf("3 844-entry DRAMBytes = %d, want %d (<= 140 000)", got, want)
	}
}
