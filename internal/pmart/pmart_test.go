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
		gotP, gotN := unpackValue(packValue(p, ln))
		return gotP == p && gotN == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafTagging(t *testing.T) {
	p := pmem.Ptr(4096)
	if isLeaf(p) {
		t.Fatal("untagged pointer reads as leaf")
	}
	tp := tagLeaf(p)
	if !isLeaf(tp) || untag(tp) != p {
		t.Fatalf("tag round trip: %d -> %d -> %d", p, tp, untag(tp))
	}
}

func TestHeaderPrefixRoundTrip(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	for _, prefix := range [][]byte{nil, {1}, []byte("abcdef"), []byte("abcdefghijklm")} {
		n, err := buildNode(a, na, typeNode4, prefix, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf [maxStoredPrefix]byte
		full, stored := readPrefix(a, n, &buf)
		if full != len(prefix) {
			t.Fatalf("prefix %q: full = %d", prefix, full)
		}
		wantStored := prefix
		if len(wantStored) > maxStoredPrefix {
			wantStored = wantStored[:maxStoredPrefix]
		}
		if !bytes.Equal(stored, wantStored) {
			t.Fatalf("prefix %q: stored = %q", prefix, stored)
		}
	}
}

func TestAddFindRemoveAllKinds(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	for _, typ := range []byte{typeNode4, typeNode16, typeNode48, typeNode256} {
		capacity := map[byte]int{typeNode4: 4, typeNode16: 16, typeNode48: 48, typeNode256: 256}[typ]
		n, err := buildNode(a, na, typ, []byte("px"), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Fill to capacity.
		for i := 0; i < capacity; i++ {
			child := tagLeaf(pmem.Ptr(1000 + i*8))
			if !addChildInPlace(a, n, byte(i), child) {
				t.Fatalf("type %d: addChildInPlace failed at %d/%d", typ, i, capacity)
			}
		}
		if typ != typeNode256 {
			if addChildInPlace(a, n, 254, tagLeaf(8)) {
				t.Fatalf("type %d: accepted child beyond capacity", typ)
			}
		}
		if got := countChildren(a, n); got != capacity {
			t.Fatalf("type %d: countChildren = %d, want %d", typ, got, capacity)
		}
		// Find each.
		for i := 0; i < capacity; i++ {
			slot, child := findChild(a, n, byte(i))
			if slot.IsNil() || untag(child) != pmem.Ptr(1000+i*8) {
				t.Fatalf("type %d: findChild(%d) = (%d,%d)", typ, i, slot, child)
			}
		}
		if _, child := findChild(a, n, 255); typ != typeNode256 && !child.IsNil() {
			t.Fatalf("type %d: found absent edge", typ)
		}
		// edgesOf come back sorted.
		edges := edgesOf(a, n)
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
			if !removeChildInPlace(a, n, byte(i)) {
				t.Fatalf("type %d: remove %d failed", typ, i)
			}
		}
		if removeChildInPlace(a, n, 0) {
			t.Fatalf("type %d: double remove succeeded", typ)
		}
		if got := countChildren(a, n); got != capacity/2 {
			t.Fatalf("type %d: after removal countChildren = %d", typ, got)
		}
		// Freed edges are reusable.
		if !addChildInPlace(a, n, 0, tagLeaf(pmem.Ptr(7777<<3))) {
			t.Fatalf("type %d: cannot reuse freed edge", typ)
		}
		if _, child := findChild(a, n, 0); untag(child) != pmem.Ptr(7777<<3) {
			t.Fatalf("type %d: reused edge wrong child", typ)
		}
	}
}

func TestGrownShrunkTypes(t *testing.T) {
	if grownType(typeNode4) != typeNode16 || grownType(typeNode16) != typeNode48 || grownType(typeNode48) != typeNode256 {
		t.Fatal("grownType chain broken")
	}
	if s, th := shrunkType(typeNode256); s != typeNode48 || th != 37 {
		t.Fatalf("shrunkType(256) = %d,%d", s, th)
	}
	if _, th := shrunkType(typeNode4); th != -1 {
		t.Fatal("NODE4 must not shrink")
	}
}

func TestBuildNodeRaisesKind(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	edges := make([]edge, 10)
	for i := range edges {
		edges[i] = edge{Byte: byte(i), Child: tagLeaf(pmem.Ptr(512 + i*8))}
	}
	n, err := buildNode(a, na, typeNode4, nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	if nodeType(a, n) != typeNode16 {
		t.Fatalf("buildNode kept kind %d for 10 edges", nodeType(a, n))
	}
}

func TestBuildLeafAndMatch(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	leaf, err := buildLeaf(a, na, []byte("leafkey"), packValue(2048, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !leafMatches(a, leaf, []byte("leafkey")) {
		t.Fatal("leafMatches false for own key")
	}
	for _, k := range []string{"leafke", "leafkeyX", "other"} {
		if leafMatches(a, leaf, []byte(k)) {
			t.Fatalf("leafMatches true for %q", k)
		}
	}
	if got := leafKeyBytes(a, leaf); string(got) != "leafkey" {
		t.Fatalf("leafKeyBytes = %q", got)
	}
	if _, err := buildLeaf(a, na, bytes.Repeat([]byte("x"), 25), 0); err == nil {
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
	l1, _ := buildLeaf(a, na, []byte("kea"), packValue(0, 0))
	l2, _ := buildLeaf(a, na, []byte("keb"), packValue(0, 0))
	root, err := buildNode(a, na, typeNode4, []byte("ke"), []edge{
		{Byte: 'a', Child: tagLeaf(l1)},
		{Byte: 'b', Child: tagLeaf(l2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lookup(a, root, []byte("kea")); got != l1 {
		t.Fatalf("lookup(kea) = %d, want %d", got, l1)
	}
	if got := lookup(a, root, []byte("keb")); got != l2 {
		t.Fatalf("lookup(keb) = %d, want %d", got, l2)
	}
	for _, miss := range []string{"ke", "kec", "keaa", "xx"} {
		if got := lookup(a, root, []byte(miss)); !got.IsNil() {
			t.Fatalf("lookup(%q) = %d, want Nil", miss, got)
		}
	}
	if countRecords(a, root) != 2 {
		t.Fatal("countRecords != 2")
	}
	if minLeaf(a, root) != l1 {
		t.Fatal("minLeaf wrong")
	}
	if err := checkTree(a, root, 2, "test"); err != nil {
		t.Fatal(err)
	}
	if err := checkTree(a, root, 3, "test"); err == nil {
		t.Fatal("checkTree accepted wrong size")
	}
}

func TestWalkOrderAndBounds(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	var edges []edge
	for i := 0; i < 26; i++ {
		leaf, _ := buildLeaf(a, na, []byte{byte('a' + i)}, packValue(0, 0))
		edges = append(edges, edge{Byte: byte('a' + i), Child: tagLeaf(leaf)})
	}
	// Single-byte keys terminate at depth 1... they need a terminator
	// level in a real tree; here the root has no prefix and each child is
	// a leaf keyed by its edge byte, which walk handles directly.
	root, err := buildNode(a, na, typeNode48, nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	walk(a, root, []byte("d"), []byte("j"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"d", "e", "f", "g", "h", "i"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
}

func TestReplaceChildAtAtomicSwap(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	l1, _ := buildLeaf(a, na, []byte("one"), packValue(0, 0))
	l2, _ := buildLeaf(a, na, []byte("two"), packValue(0, 0))
	n, err := buildNode(a, na, typeNode4, nil, []edge{{Byte: 'o', Child: tagLeaf(l1)}})
	if err != nil {
		t.Fatal(err)
	}
	slot, child := findChild(a, n, 'o')
	if untag(child) != l1 {
		t.Fatalf("pre-swap child = %d", child)
	}
	replaceChildAt(a, slot, tagLeaf(l2))
	if _, child := findChild(a, n, 'o'); untag(child) != l2 {
		t.Fatalf("post-swap child = %d", untag(child))
	}
}

// TestLongPrefixRecovery: prefixes beyond maxStoredPrefix keep their true
// length in the header and are recoverable from the minimum leaf.
func TestLongPrefixRecovery(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	// Two keys sharing a 12-byte prefix, diverging at byte 12.
	k1 := []byte("longprefixxxA")
	k2 := []byte("longprefixxxB")
	l1, _ := buildLeaf(a, na, k1, packValue(0, 0))
	l2, _ := buildLeaf(a, na, k2, packValue(0, 0))
	root, err := buildNode(a, na, typeNode4, []byte("longprefixxx"), []edge{
		{Byte: 'A', Child: tagLeaf(l1)},
		{Byte: 'B', Child: tagLeaf(l2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf [maxStoredPrefix]byte
	full, stored := readPrefix(a, root, &buf)
	if full != 12 || len(stored) != maxStoredPrefix {
		t.Fatalf("full=%d stored=%d", full, len(stored))
	}
	if got := realPrefix(a, root, 0, full); string(got) != "longprefixxx" {
		t.Fatalf("realPrefix = %q", got)
	}
	if got := fullPrefix(a, root, 0); string(got) != "longprefixxx" {
		t.Fatalf("fullPrefix = %q", got)
	}
	// Lookups with hidden prefix bytes still verify at the leaf.
	if got := lookup(a, root, k1); got != l1 {
		t.Fatalf("lookup(k1) = %d, want %d", got, l1)
	}
	// A key matching the stored prefix but diverging in the hidden tail
	// must miss (caught by the final leaf comparison).
	if got := lookup(a, root, []byte("longprefiXXXA")); !got.IsNil() {
		t.Fatalf("hidden-tail mismatch returned %d", got)
	}
}

func TestReadLeafValueRoundTrip(t *testing.T) {
	a := newArena(t)
	na := NewNodeAlloc(a)
	vp, _ := na.Alloc(16)
	a.WriteAt(vp, []byte("sixteen-byte-val"))
	a.Persist(vp, 16)
	leaf, _ := buildLeaf(a, na, []byte("k"), packValue(vp, 16))
	if got := readLeafValue(a, leaf, nil); string(got) != "sixteen-byte-val" {
		t.Fatalf("readLeafValue = %q", got)
	}
	empty, _ := buildLeaf(a, na, []byte("e"), 0)
	if got := readLeafValue(a, empty, nil); got != nil {
		t.Fatalf("nil-value leaf returned %q", got)
	}
}

func TestShrunkTypeTable(t *testing.T) {
	if s, th := shrunkType(typeNode16); s != typeNode4 || th != 3 {
		t.Fatalf("shrunkType(16) = %d,%d", s, th)
	}
	if s, th := shrunkType(typeNode48); s != typeNode16 || th != 12 {
		t.Fatalf("shrunkType(48) = %d,%d", s, th)
	}
}
