package pmart

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/casl-sdsu/hart/internal/pmem"
)

func newArena(t *testing.T) *pmem.Arena {
	t.Helper()
	a, err := pmem.New(pmem.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestPackUnpackValue(t *testing.T) {
	f := func(off uint32, n uint8) bool {
		ln := int(n % 17)
		p := pmem.Ptr(off)
		gotP, gotN := UnpackValue(PackValue(p, ln))
		return gotP == p && gotN == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafTagging(t *testing.T) {
	p := pmem.Ptr(4096)
	if IsLeaf(p) {
		t.Fatal("untagged pointer reads as leaf")
	}
	tp := TagLeaf(p)
	if !IsLeaf(tp) || Untag(tp) != p {
		t.Fatalf("tag round trip: %d -> %d -> %d", p, tp, Untag(tp))
	}
}

func TestHeaderPrefixRoundTrip(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	for _, prefix := range [][]byte{nil, {1}, []byte("abcdef"), []byte("abcdefghijklm")} {
		n, err := BuildNode(a, na, TypeNode4, prefix, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, stored := ReadPrefix(a, n)
		if full != len(prefix) {
			t.Fatalf("prefix %q: full = %d", prefix, full)
		}
		wantStored := prefix
		if len(wantStored) > MaxStoredPrefix {
			wantStored = wantStored[:MaxStoredPrefix]
		}
		if !bytes.Equal(stored, wantStored) {
			t.Fatalf("prefix %q: stored = %q", prefix, stored)
		}
	}
}

func TestAddFindRemoveAllKinds(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	for _, typ := range []byte{TypeNode4, TypeNode16, TypeNode48, TypeNode256} {
		capacity := map[byte]int{TypeNode4: 4, TypeNode16: 16, TypeNode48: 48, TypeNode256: 256}[typ]
		n, err := BuildNode(a, na, typ, []byte("px"), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Fill to capacity.
		for i := 0; i < capacity; i++ {
			child := TagLeaf(pmem.Ptr(1000 + i*8))
			if !AddChildInPlace(a, n, byte(i), child) {
				t.Fatalf("type %d: AddChildInPlace failed at %d/%d", typ, i, capacity)
			}
		}
		if typ != TypeNode256 {
			if AddChildInPlace(a, n, 254, TagLeaf(8)) {
				t.Fatalf("type %d: accepted child beyond capacity", typ)
			}
		}
		if got := CountChildren(a, n); got != capacity {
			t.Fatalf("type %d: CountChildren = %d, want %d", typ, got, capacity)
		}
		// Find each.
		for i := 0; i < capacity; i++ {
			slot, child := FindChild(a, n, byte(i))
			if slot.IsNil() || Untag(child) != pmem.Ptr(1000+i*8) {
				t.Fatalf("type %d: FindChild(%d) = (%d,%d)", typ, i, slot, child)
			}
		}
		if _, child := FindChild(a, n, 255); typ != TypeNode256 && !child.IsNil() {
			t.Fatalf("type %d: found absent edge", typ)
		}
		// Edges come back sorted.
		edges := Edges(a, n)
		if len(edges) != capacity {
			t.Fatalf("type %d: %d edges", typ, len(edges))
		}
		for i := 1; i < len(edges); i++ {
			if edges[i-1].Byte >= edges[i].Byte {
				t.Fatalf("type %d: edges unsorted", typ)
			}
		}
		// Remove half.
		for i := 0; i < capacity; i += 2 {
			if !RemoveChildInPlace(a, n, byte(i)) {
				t.Fatalf("type %d: remove %d failed", typ, i)
			}
		}
		if RemoveChildInPlace(a, n, 0) {
			t.Fatalf("type %d: double remove succeeded", typ)
		}
		if got := CountChildren(a, n); got != capacity/2 {
			t.Fatalf("type %d: after removal CountChildren = %d", typ, got)
		}
		// Freed edges are reusable.
		if !AddChildInPlace(a, n, 0, TagLeaf(pmem.Ptr(7777<<3))) {
			t.Fatalf("type %d: cannot reuse freed edge", typ)
		}
		if _, child := FindChild(a, n, 0); Untag(child) != pmem.Ptr(7777<<3) {
			t.Fatalf("type %d: reused edge wrong child", typ)
		}
	}
}

func TestGrownShrunkTypes(t *testing.T) {
	if GrownType(TypeNode4) != TypeNode16 || GrownType(TypeNode16) != TypeNode48 || GrownType(TypeNode48) != TypeNode256 {
		t.Fatal("GrownType chain broken")
	}
	if s, th := ShrunkType(TypeNode256); s != TypeNode48 || th != 37 {
		t.Fatalf("ShrunkType(256) = %d,%d", s, th)
	}
	if _, th := ShrunkType(TypeNode4); th != -1 {
		t.Fatal("NODE4 must not shrink")
	}
}

func TestBuildNodeRaisesKind(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	edges := make([]Edge, 10)
	for i := range edges {
		edges[i] = Edge{Byte: byte(i), Child: TagLeaf(pmem.Ptr(512 + i*8))}
	}
	n, err := BuildNode(a, na, TypeNode4, nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	if NodeType(a, n) != TypeNode16 {
		t.Fatalf("BuildNode kept kind %d for 10 edges", NodeType(a, n))
	}
}

func TestBuildLeafAndMatch(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	leaf, err := BuildLeaf(a, na, []byte("leafkey"), PackValue(2048, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !LeafMatches(a, leaf, []byte("leafkey")) {
		t.Fatal("LeafMatches false for own key")
	}
	for _, k := range []string{"leafke", "leafkeyX", "other"} {
		if LeafMatches(a, leaf, []byte(k)) {
			t.Fatalf("LeafMatches true for %q", k)
		}
	}
	if got := LeafKeyBytes(a, leaf); string(got) != "leafkey" {
		t.Fatalf("LeafKeyBytes = %q", got)
	}
	if _, err := BuildLeaf(a, na, bytes.Repeat([]byte("x"), 25), 0); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestNodeAllocReuseZeroes(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	p1, err := na.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteAt(p1, bytes.Repeat([]byte{0xEE}, 64))
	na.Free(p1, 64)
	p2, err := na.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatalf("free list not used: %d then %d", p1, p2)
	}
	buf := make([]byte, 64)
	a.ReadAt(p2, buf)
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("reused block not zeroed")
	}
}

func TestTerminatedAndLookupHelpers(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	// Build a small two-leaf tree by hand: root NODE4 with prefix "ke",
	// children 'y' (leaf "key") is wrong shape — instead use divergence at
	// third byte: keys "kea" and "keb".
	l1, _ := BuildLeaf(a, na, []byte("kea"), PackValue(0, 0))
	l2, _ := BuildLeaf(a, na, []byte("keb"), PackValue(0, 0))
	root, err := BuildNode(a, na, TypeNode4, []byte("ke"), []Edge{
		{Byte: 'a', Child: TagLeaf(l1)},
		{Byte: 'b', Child: TagLeaf(l2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := Lookup(a, root, []byte("kea")); got != l1 {
		t.Fatalf("Lookup(kea) = %d, want %d", got, l1)
	}
	if got := Lookup(a, root, []byte("keb")); got != l2 {
		t.Fatalf("Lookup(keb) = %d, want %d", got, l2)
	}
	for _, miss := range []string{"ke", "kec", "keaa", "xx"} {
		if got := Lookup(a, root, []byte(miss)); !got.IsNil() {
			t.Fatalf("Lookup(%q) = %d, want Nil", miss, got)
		}
	}
	if CountRecords(a, root) != 2 {
		t.Fatal("CountRecords != 2")
	}
	if MinLeaf(a, root) != l1 {
		t.Fatal("MinLeaf wrong")
	}
	if err := CheckTree(a, root, 2, "test"); err != nil {
		t.Fatal(err)
	}
	if err := CheckTree(a, root, 3, "test"); err == nil {
		t.Fatal("CheckTree accepted wrong size")
	}
}

func TestWalkOrderAndBounds(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	var edges []Edge
	for i := 0; i < 26; i++ {
		leaf, _ := BuildLeaf(a, na, []byte{byte('a' + i)}, PackValue(0, 0))
		edges = append(edges, Edge{Byte: byte('a' + i), Child: TagLeaf(leaf)})
	}
	// Single-byte keys terminate at depth 1... they need a terminator
	// level in a real tree; here the root has no prefix and each child is
	// a leaf keyed by its edge byte, which Walk handles directly.
	root, err := BuildNode(a, na, TypeNode48, nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	Walk(a, root, []byte("d"), []byte("j"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"d", "e", "f", "g", "h", "i"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Walk = %v, want %v", got, want)
	}
}

func TestReplaceChildAtAtomicSwap(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	l1, _ := BuildLeaf(a, na, []byte("one"), PackValue(0, 0))
	l2, _ := BuildLeaf(a, na, []byte("two"), PackValue(0, 0))
	n, err := BuildNode(a, na, TypeNode4, nil, []Edge{{Byte: 'o', Child: TagLeaf(l1)}})
	if err != nil {
		t.Fatal(err)
	}
	slot, child := FindChild(a, n, 'o')
	if Untag(child) != l1 {
		t.Fatalf("pre-swap child = %d", child)
	}
	ReplaceChildAt(a, slot, TagLeaf(l2))
	if _, child := FindChild(a, n, 'o'); Untag(child) != l2 {
		t.Fatalf("post-swap child = %d", Untag(child))
	}
}

// TestLongPrefixRecovery: prefixes beyond MaxStoredPrefix keep their true
// length in the header and are recoverable from the minimum leaf.
func TestLongPrefixRecovery(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	// Two keys sharing a 12-byte prefix, diverging at byte 12.
	k1 := []byte("longprefixxxA")
	k2 := []byte("longprefixxxB")
	l1, _ := BuildLeaf(a, na, k1, PackValue(0, 0))
	l2, _ := BuildLeaf(a, na, k2, PackValue(0, 0))
	root, err := BuildNode(a, na, TypeNode4, []byte("longprefixxx"), []Edge{
		{Byte: 'A', Child: TagLeaf(l1)},
		{Byte: 'B', Child: TagLeaf(l2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, stored := ReadPrefix(a, root)
	if full != 12 || len(stored) != MaxStoredPrefix {
		t.Fatalf("full=%d stored=%d", full, len(stored))
	}
	if got := RealPrefix(a, root, 0, full); string(got) != "longprefixxx" {
		t.Fatalf("RealPrefix = %q", got)
	}
	if got := FullPrefix(a, root, 0); string(got) != "longprefixxx" {
		t.Fatalf("FullPrefix = %q", got)
	}
	// Lookups with hidden prefix bytes still verify at the leaf.
	if got := Lookup(a, root, k1); got != l1 {
		t.Fatalf("Lookup(k1) = %d, want %d", got, l1)
	}
	// A key matching the stored prefix but diverging in the hidden tail
	// must miss (caught by the final leaf comparison).
	if got := Lookup(a, root, []byte("longprefiXXXA")); !got.IsNil() {
		t.Fatalf("hidden-tail mismatch returned %d", got)
	}
}

func TestReadLeafValueRoundTrip(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	vp, _ := na.Alloc(16)
	a.WriteAt(vp, []byte("sixteen-byte-val"))
	a.Persist(vp, 16)
	leaf, _ := BuildLeaf(a, na, []byte("k"), PackValue(vp, 16))
	if got := ReadLeafValue(a, leaf); string(got) != "sixteen-byte-val" {
		t.Fatalf("ReadLeafValue = %q", got)
	}
	empty, _ := BuildLeaf(a, na, []byte("e"), 0)
	if got := ReadLeafValue(a, empty); got != nil {
		t.Fatalf("nil-value leaf returned %q", got)
	}
}

func TestShrunkTypeTable(t *testing.T) {
	if s, th := ShrunkType(TypeNode16); s != TypeNode4 || th != 3 {
		t.Fatalf("ShrunkType(16) = %d,%d", s, th)
	}
	if s, th := ShrunkType(TypeNode48); s != TypeNode16 || th != 12 {
		t.Fatalf("ShrunkType(48) = %d,%d", s, th)
	}
}
