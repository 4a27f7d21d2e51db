package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// checkShape verifies what every tree keeps (checkNodes) and size equal to
// the number of records.
func checkShape(t testing.TB, tr *Tree) {
	t.Helper()
	if records := checkNodes(t, tr.root); records != tr.size {
		t.Fatalf("%d records reachable, size %d", records, tr.size)
	}
}

// checkNodes verifies the tree below root: node populations within their
// kind's bounds, edges in order and found again through slot, no stale
// slots, canonical links, every stored key equal to the path that leads
// to it. It returns the number of records.
func checkNodes(t testing.TB, root *node) int {
	t.Helper()
	var path []byte
	records := 0
	var rec func(n *node)
	rec = func(n *node) {
		if n.isLeaf() {
			records++
			if k := n.leaf().k(); !bytes.HasPrefix(k, path) {
				t.Fatalf("leaf %q below path %q", k, path)
			}
			return
		}
		h := n.inner()
		k := h.kind()
		if k < Kind4 || k > Kind256 || int(h.plen) > prefixCap {
			t.Fatalf("at %q: kind %d, plen %d", path, k, h.plen)
		}
		if least := max(shrinkAt[k]+1, 1); int(h.n) < least || int(h.n) > capacity[k] {
			t.Fatalf("at %q: %v with %d children", path, k, h.n)
		}
		mark := len(path)
		path = append(path, h.prefix[:h.plen]...)
		if h.isLink() && (k != Kind4 || h.plen != prefixCap || h.n4().children[0].isLeaf()) {
			t.Fatalf("at %q: link is %v with %d prefix bytes, leaf child %v",
				path, k, h.plen, h.n4().children[0].isLeaf())
		}
		if h.term != nil {
			records++
			if tk := h.term.k(); !bytes.Equal(tk, path) {
				t.Fatalf("terminator %q at path %q", tk, path)
			}
		}
		seen, prev := 0, -1
		h.each(0, 255, false, func(b byte, c *node) bool {
			if int(b) <= prev || c == nil || h.child(b) != c {
				t.Fatalf("at %q: edge %d after %d, child %p, slot %p", path, b, prev, c, h.child(b))
			}
			seen, prev = seen+1, int(b)
			path = append(path, b)
			rec(c)
			path = path[:len(path)-1]
			return true
		})
		held := 0
		switch k {
		case Kind4, Kind16:
			_, children := h.sorted()
			for _, c := range children {
				if c != nil {
					held++
				}
			}
		case Kind48:
			for _, c := range h.n48().children {
				if c != nil {
					held++
				}
			}
		default:
			held = seen
		}
		if seen != int(h.n) || held != int(h.n) {
			t.Fatalf("at %q: n = %d, %d edges, %d slots in use", path, h.n, seen, held)
		}
		path = path[:mark]
	}
	if root != nil {
		rec(root)
	}
	return records
}

var nodeSizes = [...]uintptr{
	KindLeaf: unsafe.Sizeof(leaf{}),
	Kind4:    unsafe.Sizeof(node4{}),
	Kind16:   unsafe.Sizeof(node16{}),
	Kind48:   unsafe.Sizeof(node48{}),
	Kind256:  unsafe.Sizeof(node256{}),
}

// rawDump copies the memory of every node reachable from tr, child
// pointers included (the Go heap does not move objects): two dumps of a
// snapshot are equal only if not one bit of it was written in between.
func rawDump(tr *Tree) []byte {
	out := fmt.Appendf(nil, "%p %d\n", tr.root, tr.size)
	var rec func(n *node)
	rec = func(n *node) {
		out = append(out, unsafe.Slice(&n.meta, nodeSizes[n.meta&kindMask])...)
		if n.isLeaf() {
			return
		}
		h := n.inner()
		if h.term != nil {
			rec(&h.term.node)
		}
		h.each(0, 255, false, func(_ byte, c *node) bool {
			rec(c)
			return true
		})
	}
	if tr.root != nil {
		rec(tr.root)
	}
	return out
}

func TestNodeSizes(t *testing.T) {
	if unsafe.Sizeof(inner{}) > 16 {
		t.Fatalf("header is %d B, want <= 16", unsafe.Sizeof(inner{}))
	}
	for k, want := range map[Kind]int64{KindLeaf: 32, Kind4: 64, Kind16: 160, Kind48: 704, Kind256: 2304} {
		if nodeBytes[k] > want {
			t.Errorf("%v costs %d B of heap, want <= %d", k, nodeBytes[k], want)
		}
	}
	if nodeSizes[KindLeaf] != 32 || nodeSizes[Kind4] > 64 {
		t.Errorf("leaf is %d B and NODE4 %d B, want 32 and at most 64", nodeSizes[KindLeaf], nodeSizes[Kind4])
	}
}

// TestStatsBytesMatchHeap holds Stats.Bytes — the number HART's DRAM
// footprint is read from — to what the process really holds: the growth
// of the live heap while the index is built, a shape like the benchmark's
// (random 3-14-byte keys behind a 62x62 directory).
func TestStatsBytesMatchHeap(t *testing.T) {
	const (
		records  = 200000
		alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	)
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, records)
	for i := range keys {
		k := make([]byte, 2+3+rng.Intn(12))
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		keys[i] = k
	}
	batches := make([]*Batch, 256*256)
	trees := make([]*Tree, 0, len(alphabet)*len(alphabet))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, k := range keys {
		shard := int(k[0])<<8 | int(k[1])
		if batches[shard] == nil {
			batches[shard] = New().BeginBatch()
		}
		batches[shard].Insert(k[2:], uint64(i))
	}
	for i, b := range batches {
		if b != nil {
			trees = append(trees, b.Commit())
			batches[i] = nil
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	var counted int64
	stored := 0
	for _, tr := range trees {
		st := tr.Stats()
		counted += st.Bytes
		stored += st.Records
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d trees, %d records: Stats counts %.1f B/record, the heap grew %.1f B/record",
		len(trees), stored, float64(counted)/float64(stored), float64(held)/float64(stored))
	if diff := float64(counted-held) / float64(held); diff < -0.05 || diff > 0.05 {
		t.Fatalf("Stats counts %d B, the heap grew %d B: %+.1f%%", counted, held, 100*diff)
	}
	// What was live at the first reading must be live at the second.
	runtime.KeepAlive(keys)
	runtime.KeepAlive(batches)
	runtime.KeepAlive(trees)
}

// pathNodes returns how many inner nodes a lookup of key passes through.
func pathNodes(tr *Tree, key []byte) int {
	d, depth := 0, 0
	for n := tr.root; n != nil && !n.isLeaf(); d++ {
		h := n.inner()
		depth += int(h.plen)
		if depth >= len(key) {
			return d + 1
		}
		n = h.child(key[depth])
		depth++
	}
	return d
}

func TestAllocBudget(t *testing.T) {
	tr := newEditor()
	for i, k := range []string{"abcd1", "abcd2", "abc3", "ab4", "a5"} {
		tr.Insert([]byte(k), uint64(i)) // a node with two children after each of a, ab, abc, abcd
	}
	present, absent := []byte("abcd1"), []byte("abcd7")
	if n := testing.AllocsPerRun(100, func() { tr.Get(present); tr.Get(absent) }); n != 0 {
		t.Errorf("Get allocates %v times", n)
	}

	// An absent key under a path of d inner nodes: d copies, one leaf, the
	// Tree. The key's bytes go into the leaf, not into a copy of their own.
	d := pathNodes(tr.Tree, absent)
	if d != 4 {
		t.Fatalf("path of %d inner nodes, want 4", d)
	}
	if n := testing.AllocsPerRun(100, func() { tr.CowInsert(absent, 1) }); int(n) != d+2 {
		t.Errorf("CowInsert under %d inner nodes allocates %v times, want %d", d, n, d+2)
	}

	// A fresh key where a NODE48 or NODE256 has room takes its edge in
	// place, in a batch and in a published tree alike: the leaf is all
	// they allocate.
	b := New().BeginBatch()
	var r Root
	for i := 0; i < 64; i++ {
		b.Insert([]byte{'k', byte(i)}, 0) // a NODE256 under 'k': room without growing
		r.Insert([]byte{'k', byte(i)}, 0)
	}
	next := byte(64)
	if n := testing.AllocsPerRun(100, func() { b.Insert([]byte{'k', next}, 0); next++ }); n != 1 {
		t.Errorf("Batch.Insert of a fresh edge allocates %v times, want 1", n)
	}
	next = 64
	if n := testing.AllocsPerRun(100, func() { r.Insert([]byte{'k', next}, 0); next++ }); n != 1 {
		t.Errorf("Root.Insert of a fresh edge allocates %v times, want 1", n)
	}
	// An update below a NODE4 swings the slot in place: the new leaf.
	r.Insert([]byte("k\x00tail-a"), 1)
	r.Insert([]byte("k\x00tail-b"), 2)
	if n := testing.AllocsPerRun(100, func() { r.Insert([]byte("k\x00tail-a"), 3) }); n != 1 {
		t.Errorf("Root.Insert of an update allocates %v times, want 1", n)
	}
	checkShape(t, b.Commit())
	checkNodes(t, r.p.Load())
}

func TestEmptyAndLongestKey(t *testing.T) {
	tr := newEditor()
	r := ref{}
	longest := bytes.Repeat([]byte{0xff}, MaxKeyLen)
	for i, k := range [][]byte{{}, longest, longest[:MaxKeyLen-1], {0}, {0, 0}} {
		tr.Insert(k, uint64(i))
		r[string(k)] = uint64(i)
		checkAgainstRef(t, tr, r)
	}
	if _, ok := tr.Get(append(longest, 0xff)); ok {
		t.Fatal("found a key longer than MaxKeyLen")
	}
	var lo, hi []byte
	tr.Walk(nil, nil, false, func(k []byte, _ uint64) bool { lo = k; return false })
	tr.Walk(nil, nil, true, func(k []byte, _ uint64) bool { hi = k; return false })
	if len(lo) != 0 || !bytes.Equal(hi, longest) {
		t.Fatalf("walks start at %q and %q, want the empty key and the longest", lo, hi)
	}
	for _, k := range [][]byte{{}, longest} {
		tr.Delete(k)
		delete(r, string(k))
		checkAgainstRef(t, tr, r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a key longer than MaxKeyLen was accepted")
		}
	}()
	tr.CowInsert(make([]byte, MaxKeyLen+1), 1)
}

// TestTerminatorsAtEveryKind puts a key that ends at a node of each kind
// beside that node's children, then takes the children away.
func TestTerminatorsAtEveryKind(t *testing.T) {
	for _, fan := range []int{2, 4, 5, 16, 17, 48, 49, 256} {
		tr := newEditor()
		r := ref{}
		put := func(k string, v uint64) {
			tr.Insert([]byte(k), v)
			r[k] = v
		}
		put("t", 1000)
		for i := 0; i < fan; i++ {
			put(string([]byte{'t', byte(i)}), uint64(i))
			put(string([]byte{'t', byte(i), 'x'}), uint64(i)) // and one at each child
		}
		checkAgainstRef(t, tr, r)
		if v, ok := tr.Get([]byte("t")); !ok || v != 1000 {
			t.Fatalf("fan %d: terminator = %d,%v", fan, v, ok)
		}
		for i := fan - 1; i >= 0; i-- {
			for _, k := range []string{string([]byte{'t', byte(i), 'x'}), string([]byte{'t', byte(i)})} {
				if _, ok := tr.Delete([]byte(k)); !ok {
					t.Fatalf("fan %d: Delete(%q) failed", fan, k)
				}
				delete(r, k)
			}
			checkAgainstRef(t, tr, r)
		}
		if !tr.root.isLeaf() {
			t.Fatalf("fan %d: a lone terminator did not collapse to its leaf", fan)
		}
	}
}

// TestChainedPrefixes covers shared paths around the inline capacity:
// built, split at every position inside the chain, and re-compressed by
// the delete that takes the split away.
func TestChainedPrefixes(t *testing.T) {
	for _, shared := range []int{0, 1, prefixCap, prefixCap + 1, 2*prefixCap + 1, 2*prefixCap + 2, MaxKeyLen - 1} {
		stem := strings.Repeat("abcdefg", 4)[:shared]
		tr := newEditor()
		r := ref{}
		for i, k := range []string{stem + "1", stem + "2"} {
			tr.Insert([]byte(k), uint64(i))
			r[k] = uint64(i)
		}
		checkAgainstRef(t, tr, r)
		// shared bytes of path: a link per prefixCap+1 of them, then the
		// node that holds the two records.
		links := shared / (prefixCap + 1)
		if st := tr.Stats(); st.Node4s != links+1 || st.Height != links+1 {
			t.Fatalf("shared %d: %d NODE4s, height %d, want %d and %d", shared, st.Node4s, st.Height, links+1, links+1)
		}
		for cut := 0; cut <= shared; cut++ {
			for _, k := range []string{stem[:cut], stem[:cut] + "~", stem[:cut] + "~~"} {
				if _, present := r[k]; present || len(k) > MaxKeyLen {
					continue
				}
				before, whole := tr.Tree, rawDump(tr.Tree)
				tr.Insert([]byte(k), 77)
				r[k] = 77
				checkAgainstRef(t, tr, r)
				tr.Delete([]byte(k))
				delete(r, k)
				checkAgainstRef(t, tr, r)
				if a, b := before.Stats(), tr.Stats(); a != b {
					t.Fatalf("shared %d: insert and delete of %q changed the shape: %+v, then %+v", shared, k, a, b)
				}
				if !bytes.Equal(rawDump(before), whole) {
					t.Fatalf("shared %d: insert and delete of %q wrote to the tree they started from", shared, k)
				}
			}
		}
		// Deleting one record collapses the whole chain into the other.
		tr.Delete([]byte(stem + "1"))
		if tr.root == nil || !tr.root.isLeaf() {
			t.Fatalf("shared %d: chain did not collapse into the last leaf", shared)
		}
	}
}

// TestRangeBoundsInsideChain places scan bounds at every position along
// a chained path, below it, beside it and past it.
func TestRangeBoundsInsideChain(t *testing.T) {
	stem := "abcdefghijklm" // two links and three bytes
	tr := newEditor()
	var keys []string
	for _, k := range []string{"a", "abcde", stem, stem + "0", stem + "5", stem + "5x", stem + "9", "abd", "b", ""} {
		tr.Insert([]byte(k), uint64(len(keys)))
		keys = append(keys, k)
	}
	checkShape(t, tr.Tree)
	sort.Strings(keys)
	var bounds [][]byte
	bounds = append(bounds, nil, []byte{})
	for cut := 1; cut <= len(stem); cut++ {
		for _, tail := range []string{"", "\x00", "5", "~"} {
			bounds = append(bounds, []byte(stem[:cut]+tail))
		}
	}
	bounds = append(bounds, []byte(stem+"5x"), []byte(stem+"5x\x00"), []byte("c"))
	for _, start := range bounds {
		for _, end := range bounds {
			checkRange(t, tr.Tree, keys, start, end)
		}
	}
}
