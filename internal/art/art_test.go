package art

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// editor threads a tree through CowInsert and CowDelete, so a test body
// reads as the sequence of operations it checks, and runs every operation
// on a Root as well, edited in place, which checkAgainstRef holds to the
// same shape.
type editor struct {
	*Tree
	live Root
}

func newEditor() *editor { return &editor{Tree: New()} }

func (e *editor) Insert(key []byte, val uint64) (old uint64, updated bool) {
	e.Tree, old, updated = e.CowInsert(key, val)
	if o, u := e.live.Insert(key, val); o != old || u != updated {
		panic(fmt.Sprintf("Insert(%q): in place (%d,%v), copied (%d,%v)", key, o, u, old, updated))
	}
	return old, updated
}

func (e *editor) Delete(key []byte) (old uint64, ok bool) {
	e.Tree, old, ok = e.CowDelete(key)
	if o, k := e.live.Delete(key); o != old || k != ok {
		panic(fmt.Sprintf("Delete(%q): in place (%d,%v), copied (%d,%v)", key, o, k, old, ok))
	}
	return old, ok
}

// shape spells the tree below n: every node's kind, prefix, terminator
// and edges, every leaf's key and value.
func shape(n *node) string {
	if n == nil {
		return "-"
	}
	if n.isLeaf() {
		return fmt.Sprintf("%q=%d", n.leaf().k(), n.leaf().val)
	}
	h := n.inner()
	out := fmt.Sprintf("%v%q(", h.kind(), h.prefix[:h.plen])
	if h.term != nil {
		out += shape(&h.term.node)
	}
	h.each(0, 255, false, func(b byte, c *node) bool {
		out += fmt.Sprintf(" %d:%s", b, shape(c))
		return true
	})
	return out + ")"
}

// ref is a reference model for differential testing.
type ref map[string]uint64

func (r ref) sortedKeys() []string {
	ks := make([]string, 0, len(r))
	for k := range r {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkAgainstRef checks the editor's tree against r, and its Root,
// edited in place, against the tree.
func checkAgainstRef(t *testing.T, e *editor, r ref) {
	t.Helper()
	tr := e.Tree
	checkShape(t, tr)
	checkNodes(t, e.live.p.Load())
	if a, b := shape(tr.root), shape(e.live.p.Load()); a != b {
		t.Fatalf("edited in place the tree is\n%s\ncopied it is\n%s", b, a)
	}
	if tr.Len() != len(r) {
		t.Fatalf("Len = %d, ref has %d", tr.Len(), len(r))
	}
	for k, v := range r {
		got, ok := tr.Get([]byte(k))
		if !ok || got != v {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	var keys []string
	tr.Walk(nil, nil, false, func(k []byte, v uint64) bool {
		keys = append(keys, string(k))
		if r[string(k)] != v {
			t.Fatalf("Ascend key %q value %d, want %d", k, v, r[string(k)])
		}
		return true
	})
	want := r.sortedKeys()
	if len(keys) != len(want) {
		t.Fatalf("Ascend visited %d keys, want %d", len(keys), len(want))
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("Ascend order: keys[%d] = %q, want %q", i, keys[i], want[i])
		}
	}
	i := len(want)
	tr.Walk(nil, nil, true, func(k []byte, _ uint64) bool {
		if i--; i < 0 || string(k) != want[i] {
			t.Fatalf("descending Walk met %q at %d of %d", k, len(want)-1-i, len(want))
		}
		return true
	})
	if i != 0 {
		t.Fatalf("descending Walk visited %d keys, want %d", len(want)-i, len(want))
	}
}

func TestInsertGetBasic(t *testing.T) {
	tr := newEditor()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	keys := []string{"romane", "romanus", "romulus", "rubens", "ruber", "rubicon", "rubicundus"}
	for i, k := range keys {
		if _, updated := tr.Insert([]byte(k), uint64(i+1)); updated {
			t.Fatalf("Insert(%q) reported update on first insert", k)
		}
	}
	for i, k := range keys {
		v, ok := tr.Get([]byte(k))
		if !ok || v != uint64(i+1) {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i+1)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
}

func TestInsertUpdateReturnsOld(t *testing.T) {
	tr := newEditor()
	tr.Insert([]byte("key"), 10)
	old, updated := tr.Insert([]byte("key"), 20)
	if !updated || old != 10 {
		t.Fatalf("Insert update = (%d,%v), want (10,true)", old, updated)
	}
	if v, _ := tr.Get([]byte("key")); v != 20 {
		t.Fatalf("Get after update = %d, want 20", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after update = %d, want 1", tr.Len())
	}
}

func TestPrefixKeys(t *testing.T) {
	// Keys that are prefixes of one another exercise terminator leaves.
	tr := newEditor()
	r := ref{}
	keys := []string{"a", "ab", "abc", "abcd", "abcde", "b", "", "abce", "abd"}
	for i, k := range keys {
		tr.Insert([]byte(k), uint64(i+100))
		r[k] = uint64(i + 100)
	}
	checkAgainstRef(t, tr, r)
	// Delete the middle of a prefix chain.
	for _, k := range []string{"abc", "a", ""} {
		if _, ok := tr.Delete([]byte(k)); !ok {
			t.Fatalf("Delete(%q) failed", k)
		}
		delete(r, k)
		checkAgainstRef(t, tr, r)
	}
}

func TestNodeGrowthAllKinds(t *testing.T) {
	// 256 single-byte-suffix keys force NODE4 -> NODE16 -> NODE48 -> NODE256.
	tr := newEditor()
	r := ref{}
	for i := 0; i < 256; i++ {
		k := string([]byte{'p', 'r', 'e', byte(i)})
		tr.Insert([]byte(k), uint64(i))
		r[k] = uint64(i)
		// Validate at the growth boundaries.
		if i == 3 || i == 4 || i == 15 || i == 16 || i == 47 || i == 48 || i == 255 {
			checkAgainstRef(t, tr, r)
		}
	}
	st := tr.Stats()
	if st.Node256s == 0 {
		t.Fatalf("expected a NODE256 after 256 fanout inserts; stats %+v", st)
	}
}

func TestNodeShrinkAllKinds(t *testing.T) {
	tr := newEditor()
	r := ref{}
	for i := 0; i < 256; i++ {
		k := string([]byte{'x', byte(i)})
		tr.Insert([]byte(k), uint64(i))
		r[k] = uint64(i)
	}
	order := rand.New(rand.NewSource(7)).Perm(256)
	for n, i := range order {
		k := string([]byte{'x', byte(i)})
		if _, ok := tr.Delete([]byte(k)); !ok {
			t.Fatalf("Delete(%q) failed", k)
		}
		delete(r, k)
		// Validate around the shrink boundaries and at the end.
		left := 256 - n - 1
		if left == 48 || left == 37 || left == 16 || left == 12 || left == 4 || left == 3 || left == 1 || left == 0 {
			checkAgainstRef(t, tr, r)
		}
	}
	if tr.root != nil {
		t.Fatal("root not nil after deleting all keys")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newEditor()
	tr.Insert([]byte("abc"), 1)
	for _, k := range []string{"", "a", "ab", "abcd", "abd", "xyz"} {
		if _, ok := tr.Delete([]byte(k)); ok {
			t.Fatalf("Delete(%q) succeeded on missing key", k)
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after failed deletes, want 1", tr.Len())
	}
}

func TestPathCompressionSplit(t *testing.T) {
	tr := newEditor()
	r := ref{}
	// Long shared prefix, diverging at several depths.
	for i, k := range []string{"aaaaaaaaaaaaaaaa1", "aaaaaaaaaaaaaaaa2", "aaaaaaaa", "aaaab", "aaaaaaaaaaaaaaaa"} {
		tr.Insert([]byte(k), uint64(i))
		r[k] = uint64(i)
	}
	checkAgainstRef(t, tr, r)
}

func TestAscendRange(t *testing.T) {
	tr := newEditor()
	var all []string
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%04d", i)
		tr.Insert([]byte(k), uint64(i))
		all = append(all, k)
	}
	cases := []struct{ start, end string }{
		{"key0100", "key0200"},
		{"key0000", "key1000"},
		{"", "key0001"},
		{"key0999", "zzz"},
		{"key0500", "key0500"},
		{"a", "b"},
	}
	for _, c := range cases {
		var got []string
		tr.Walk([]byte(c.start), []byte(c.end), false, func(k []byte, _ uint64) bool {
			got = append(got, string(k))
			return true
		})
		var want []string
		for _, k := range all {
			if k >= c.start && k < c.end {
				want = append(want, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range [%q,%q): got %d keys, want %d", c.start, c.end, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range [%q,%q): got[%d]=%q want %q", c.start, c.end, i, got[i], want[i])
			}
		}
	}
}

func TestKeySliceNotAliased(t *testing.T) {
	tr := newEditor()
	buf := []byte("mutable")
	tr.Insert(buf, 1)
	buf[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("tree aliased the caller's key buffer")
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := newEditor()
	r := ref{}
	var live []string
	const ops = 20000
	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert
			k := randKey(rng)
			v := rng.Uint64()
			_, updated := tr.Insert([]byte(k), v)
			if _, existed := r[k]; existed != updated {
				t.Fatalf("op %d: Insert(%q) updated=%v, ref existed=%v", i, k, updated, existed)
			}
			if !updated {
				live = append(live, k)
			}
			r[k] = v
		case op < 8 && len(live) > 0: // delete an existing key
			j := rng.Intn(len(live))
			k := live[j]
			old, ok := tr.Delete([]byte(k))
			if !ok || old != r[k] {
				t.Fatalf("op %d: Delete(%q) = (%d,%v), want (%d,true)", i, k, old, ok, r[k])
			}
			delete(r, k)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // lookup (possibly missing)
			k := randKey(rng)
			got, ok := tr.Get([]byte(k))
			want, existed := r[k]
			if ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Get(%q) = (%d,%v), want (%d,%v)", i, k, got, ok, want, existed)
			}
		}
	}
	checkAgainstRef(t, tr, r)
}

// randKey draws short keys from a small alphabet to maximise structural
// collisions (prefix chains, splits, terminators).
func randKey(rng *rand.Rand) string {
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = "abAB01"[rng.Intn(6)]
	}
	return string(b)
}

func TestQuickInsertGetDelete(t *testing.T) {
	// Property: a tree loaded with any key set returns exactly that set in
	// sorted order, and deleting half leaves exactly the other half.
	f := func(raw [][]byte) bool {
		tr := newEditor()
		r := ref{}
		for i, k := range raw {
			if len(k) > MaxKeyLen {
				k = k[:MaxKeyLen]
			}
			tr.Insert(k, uint64(i))
			r[string(k)] = uint64(i)
		}
		for k, v := range r {
			if got, ok := tr.Get([]byte(k)); !ok || got != v {
				return false
			}
		}
		i := 0
		for k := range r {
			if i%2 == 0 {
				if _, ok := tr.Delete([]byte(k)); !ok {
					return false
				}
				delete(r, k)
			}
			i++
		}
		if tr.Len() != len(r) {
			return false
		}
		prev := []byte(nil)
		ok := true
		first := true
		tr.Walk(nil, nil, false, func(k []byte, v uint64) bool {
			if want, exists := r[string(k)]; !exists || want != v {
				ok = false
				return false
			}
			if !first && bytes.Compare(prev, k) >= 0 {
				ok = false
				return false
			}
			prev = append(prev[:0], k...)
			first = false
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounts(t *testing.T) {
	tr := newEditor()
	for i := 0; i < 10000; i++ {
		tr.Insert([]byte(fmt.Sprintf("%08d", i)), uint64(i))
	}
	st := tr.Stats()
	if st.Records != 10000 {
		t.Fatalf("Stats.Records = %d, want 10000", st.Records)
	}
	if st.Bytes <= 0 || st.Height <= 0 {
		t.Fatalf("Stats has non-positive Bytes/Height: %+v", st)
	}
}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%012d", i*2654435761%1000000007))
	}
	return keys
}

func BenchmarkCowInsert(b *testing.B) {
	keys := benchKeys(b.N)
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, _, _ = tr.CowInsert(keys[i], uint64(i))
	}
}

func BenchmarkBatchInsert(b *testing.B) {
	keys := benchKeys(b.N)
	bt := New().BeginBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Insert(keys[i], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	bt := New().BeginBatch()
	for i, k := range keys {
		bt.Insert(k, uint64(i))
	}
	tr := bt.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%n])
	}
}

func TestDescend(t *testing.T) {
	tr := newEditor()
	var keys []string
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("d%04d", i)
		tr.Insert([]byte(k), uint64(i))
		keys = append(keys, k)
	}
	tr.Insert([]byte("d"), 999) // terminator exercise
	var got []string
	tr.Walk(nil, nil, true, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 301 {
		t.Fatalf("descending Walk visited %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] <= got[i] {
			t.Fatalf("descending Walk out of order: %q then %q", got[i-1], got[i])
		}
	}
	if got[len(got)-1] != "d" {
		t.Fatalf("terminator key not last: %q", got[len(got)-1])
	}
	// Bounded reverse range.
	got = got[:0]
	tr.Walk([]byte("d0100"), []byte("d0110"), true, func(k []byte, _ uint64) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != "d0109" || got[9] != "d0100" {
		t.Fatalf("descending Walk = %v", got)
	}
	// Early stop.
	n := 0
	tr.Walk(nil, nil, true, func(k []byte, _ uint64) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestKindStringsAndEmpty(t *testing.T) {
	names := map[Kind]string{
		KindLeaf: "LEAF", Kind4: "NODE4", Kind16: "NODE16",
		Kind48: "NODE48", Kind256: "NODE256", Kind(99): "NODE?",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	tr := newEditor()
	if !tr.Empty() {
		t.Fatal("new tree not Empty")
	}
	tr.Insert([]byte("x"), 1)
	if tr.Empty() {
		t.Fatal("non-empty tree reports Empty")
	}
}

// TestSoleChildMergeAllKinds drives single-child path merges out of every
// node kind by deleting down to one child.
func TestSoleChildMergeAllKinds(t *testing.T) {
	for _, fan := range []int{4, 16, 48, 256} {
		tr := newEditor()
		for i := 0; i < fan; i++ {
			tr.Insert([]byte{'m', byte(i), 'a', 'b'}, uint64(i))
		}
		// Delete all but child 2; the survivor's path must re-compress.
		for i := 0; i < fan; i++ {
			if i == 2 {
				continue
			}
			if _, ok := tr.Delete([]byte{'m', byte(i), 'a', 'b'}); !ok {
				t.Fatalf("fan %d: delete %d failed", fan, i)
			}
		}
		if v, ok := tr.Get([]byte{'m', 2, 'a', 'b'}); !ok || v != 2 {
			t.Fatalf("fan %d: survivor lost after merges: (%d,%v)", fan, v, ok)
		}
		if tr.Len() != 1 {
			t.Fatalf("fan %d: Len = %d", fan, tr.Len())
		}
	}
}

func TestDescendOnLargeNodesWithBounds(t *testing.T) {
	tr := newEditor()
	for i := 0; i < 200; i++ {
		tr.Insert([]byte{'w', byte(i)}, uint64(i))
	}
	var got []byte
	tr.Walk([]byte{'w', 50}, []byte{'w', 60}, true, func(k []byte, v uint64) bool {
		got = append(got, k[1])
		return true
	})
	if len(got) != 10 || got[0] != 59 || got[9] != 50 {
		t.Fatalf("descending Walk over NODE256 = %v", got)
	}
}
