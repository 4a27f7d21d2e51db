package hashdir

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetDeleteBasic(t *testing.T) {
	tb := New[int]()
	if _, ok := tb.Get([]byte("absent")); ok {
		t.Fatal("Get on empty table")
	}
	if !tb.Put([]byte("aa"), 1) {
		t.Fatal("first Put reported replacement")
	}
	if tb.Put([]byte("aa"), 2) {
		t.Fatal("second Put reported insertion")
	}
	if v, ok := tb.Get([]byte("aa")); !ok || v != 2 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete([]byte("aa")) {
		t.Fatal("Delete failed")
	}
	if tb.Delete([]byte("aa")) {
		t.Fatal("double Delete succeeded")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after delete", tb.Len())
	}
}

func TestGrowthAndProbeBounds(t *testing.T) {
	tb := New[int]()
	const n = 10000
	for i := 0; i < n; i++ {
		tb.Put([]byte(fmt.Sprintf("%02x%02x", i>>8, i&0xff)), i)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i := 0; i < n; i += 97 {
		v, ok := tb.Get([]byte(fmt.Sprintf("%02x%02x", i>>8, i&0xff)))
		if !ok || v != i {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
	st := tb.Stats()
	if st.Live != n {
		t.Fatalf("Stats.Live = %d", st.Live)
	}
	// Load factor bounded => probes stay modest.
	if st.MaxProbe > 64 {
		t.Fatalf("MaxProbe = %d; load factor violated?", st.MaxProbe)
	}
	if (st.Live+st.Tombstones)*maxLoadDen >= st.Buckets*maxLoadNum {
		t.Fatalf("load factor exceeded: %d live + %d dead in %d buckets",
			st.Live, st.Tombstones, st.Buckets)
	}
}

func TestTombstoneReuseAndCompaction(t *testing.T) {
	tb := New[int]()
	// Churn the same small key population far beyond the table size;
	// tombstone compaction must keep the table from growing unboundedly.
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			tb.Put([]byte(fmt.Sprintf("k%02d", i)), round)
		}
		for i := 0; i < 50; i++ {
			tb.Delete([]byte(fmt.Sprintf("k%02d", i)))
		}
	}
	st := tb.Stats()
	if st.Buckets > 1024 {
		t.Fatalf("table grew to %d buckets under churn of 50 keys", st.Buckets)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Still fully functional.
	tb.Put([]byte("final"), 42)
	if v, ok := tb.Get([]byte("final")); !ok || v != 42 {
		t.Fatal("table broken after churn")
	}
}

func TestSortedKeysMaintained(t *testing.T) {
	tb := New[string]()
	keys := []string{"zz", "aa", "mm", "a", "zzz", "ab"}
	for _, k := range keys {
		tb.Put([]byte(k), k)
	}
	got := tb.SortedKeys()
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SortedKeys = %v, want %v", got, want)
	}
	tb.Delete([]byte("mm"))
	if fmt.Sprint(tb.SortedKeys()) != fmt.Sprint([]string{"a", "aa", "ab", "zz", "zzz"}) {
		t.Fatalf("SortedKeys after delete = %v", tb.SortedKeys())
	}
	// Replacement must not duplicate the sorted entry.
	tb.Put([]byte("aa"), "again")
	if len(tb.SortedKeys()) != 5 {
		t.Fatalf("sorted list grew on replacement: %v", tb.SortedKeys())
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := New[int]()
	for i := 0; i < 100; i++ {
		tb.Put([]byte(fmt.Sprintf("r%03d", i)), i)
	}
	seen := map[string]bool{}
	tb.Range(func(k []byte, v int) bool {
		seen[string(k)] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("Range visited %d entries", len(seen))
	}
	n := 0
	tb.Range(func(k []byte, v int) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestOversizeKeyPanics(t *testing.T) {
	tb := New[int]()
	defer func() {
		if recover() == nil {
			t.Fatal("oversize key did not panic")
		}
	}()
	tb.Put(make([]byte, MaxKeyLen+1), 1)
}

func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint32) bool {
		tb := New[uint32]()
		ref := map[string]uint32{}
		for _, op := range ops {
			k := fmt.Sprintf("%03d", op%500)
			switch (op >> 16) % 3 {
			case 0:
				tb.Put([]byte(k), op)
				ref[k] = op
			case 1:
				got := tb.Delete([]byte(k))
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			default:
				got, ok := tb.Get([]byte(k))
				want, exists := ref[k]
				if ok != exists || (ok && got != want) {
					return false
				}
			}
		}
		if tb.Len() != len(ref) {
			return false
		}
		keys := tb.SortedKeys()
		return len(keys) == len(ref) && sort.StringsAreSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// A longer deterministic differential run for deeper interleavings.
	rng := rand.New(rand.NewSource(31))
	ops := make([]uint32, 20000)
	for i := range ops {
		ops[i] = rng.Uint32()
	}
	if !f(ops) {
		t.Fatal("long differential run diverged from map model")
	}
}

func TestDRAMBytesPositive(t *testing.T) {
	tb := New[int]()
	tb.Put([]byte("x"), 1)
	if tb.DRAMBytes() <= 0 {
		t.Fatal("DRAMBytes not positive")
	}
}

// TestNewFromSortedVariableDepth covers the bulk constructor with
// entry names of mixed lengths, some prefixes of others — what a
// directory holding keys shorter than its hash-key length next to full
// hash keys produces.
func TestNewFromSortedVariableDepth(t *testing.T) {
	keys := []string{"a", "ab", "aba", "abz", "ac", "b", "zzzzzzz"}
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i + 1
	}
	tab := NewFromSorted(keys, vals)
	if tab.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(keys))
	}
	for i, k := range keys {
		v, ok := tab.Get([]byte(k))
		if !ok || v != i+1 {
			t.Fatalf("Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i+1)
		}
	}
	if _, ok := tab.Get([]byte("abq")); ok {
		t.Fatal("Get on absent mixed-length key succeeded")
	}
	got := tab.SortedKeys()
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("SortedKeys[%d] = %q, want %q", i, got[i], k)
		}
	}
	// Mutations after bulk construction keep working across lengths.
	tab.Put([]byte("abq"), 99)
	if v, ok := tab.Get([]byte("abq")); !ok || v != 99 {
		t.Fatal("Put/Get after NewFromSorted failed")
	}
	if !tab.Delete([]byte("ab")) {
		t.Fatal("Delete of a key that prefixes others failed")
	}
	if _, ok := tab.Get([]byte("ab")); ok {
		t.Fatal("deleted key still present")
	}
	if _, ok := tab.Get([]byte("aba")); !ok {
		t.Fatal("sibling lost by Delete")
	}
}

func TestNewFromSortedVariableDepthLarge(t *testing.T) {
	// A larger mixed-length set keeps Get/Range consistent after Clone.
	var keys []string
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("%02d", i))
	}
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("ab%02d", i)) // 4-byte names under "ab"
	}
	keys = append(keys, "ab") // a prefix of 64 other names
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = "v" + k
	}
	// NewFromSorted requires ascending keys.
	type pair struct{ k, v string }
	pairs := make([]pair, len(keys))
	for i := range keys {
		pairs[i] = pair{keys[i], vals[i]}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	sk := make([]string, len(pairs))
	sv := make([]string, len(pairs))
	for i, p := range pairs {
		sk[i], sv[i] = p.k, p.v
	}
	tab := NewFromSorted(sk, sv)
	cl := tab.Clone()
	for _, tt := range []*Table[string]{tab, cl} {
		n := 0
		tt.Range(func(k []byte, v string) bool {
			if v != "v"+string(k) {
				t.Fatalf("Range saw (%q,%q)", k, v)
			}
			n++
			return true
		})
		if n != len(sk) {
			t.Fatalf("Range visited %d, want %d", n, len(sk))
		}
	}
}
