package hashdir

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// alphabet62 is the paper's key alphabet: every two-byte prefix of the
// benchmark's keys is a pair over it, 62² = 3 844 directory entries.
const alphabet62 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

// pairKeys returns every two-byte key over the alphabet, in order of the
// first byte.
func pairKeys(alphabet string) [][]byte {
	keys := make([][]byte, 0, len(alphabet)*len(alphabet))
	for i := 0; i < len(alphabet); i++ {
		for j := 0; j < len(alphabet); j++ {
			keys = append(keys, []byte{alphabet[i], alphabet[j]})
		}
	}
	return keys
}

// rangeKeys returns the table's keys in the order Range visits them.
func rangeKeys[V any](tb *Table[V]) []string {
	var keys []string
	tb.Range(func(k []byte, _ V) bool {
		keys = append(keys, string(k))
		return true
	})
	return keys
}

func TestPutGetDeleteBasic(t *testing.T) {
	tb := New[int]()
	if _, ok := tb.Get([]byte("abs")); ok {
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
	for _, k := range []string{"", "a", "aaa", "aaaa"} {
		if _, ok := tb.Get([]byte(k)); ok {
			t.Fatalf("Get(%q) hit beside the only key %q", k, "aa")
		}
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

// TestGrowthAndProbeBounds: the table grows by whole pages, one per
// distinct prefix of its keys, and never probes — every key is found at
// its own slot of its page.
func TestGrowthAndProbeBounds(t *testing.T) {
	tb := New[int]()
	const n = 10000
	key := func(i int) []byte { return []byte{byte(i >> 8), byte(i)} }
	for i := 0; i < n; i++ {
		tb.Put(key(i), i)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := tb.Get(key(i)); !ok || v != i {
			t.Fatalf("Get(%d) = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := tb.Get(key(n)); ok {
		t.Fatal("Get hit past the last key")
	}
	// 40 first bytes: 40 nodes and pages below one kids array.
	const pages = (n + 255) / 256
	var pg page[int]
	var nd node[int]
	want := int64(pages)*int64(unsafe.Sizeof(pg)+unsafe.Sizeof(nd)) + int64(unsafe.Sizeof(*tb)) + 256*8
	if got := tb.DRAMBytes(); got != want {
		t.Fatalf("DRAMBytes = %d, want %d for %d pages", got, want, pages)
	}
}

// TestTombstoneReuseAndCompaction: Delete leaves no tombstone. A slot is
// free again the moment its key goes, and a page whose last key goes is
// dropped, so churning a small key set leaves the table as small as before.
func TestTombstoneReuseAndCompaction(t *testing.T) {
	tb := New[int]()
	tb.Put([]byte("zz"), 0)
	base := tb.DRAMBytes()
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			tb.Put([]byte(fmt.Sprintf("k%02d", i)), round)
		}
		for i := 0; i < 50; i++ {
			tb.Delete([]byte(fmt.Sprintf("k%02d", i)))
		}
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// The nodes on the churned keys' paths stay ("k", its kids array and
	// "k0" to "k4"); their pages do not.
	var nd node[int]
	if got, want := tb.DRAMBytes(), base+256*8+6*int64(unsafe.Sizeof(nd)); got != want {
		t.Fatalf("DRAMBytes = %d after churn, want %d", got, want)
	}
	tb.Put([]byte("k07"), 42)
	if v, ok := tb.Get([]byte("k07")); !ok || v != 42 {
		t.Fatal("table broken after churn")
	}
}

// TestSortedKeysMaintained: Range visits keys in byte order, a key before
// the keys it prefixes, and keeps that order across Put and Delete.
func TestSortedKeysMaintained(t *testing.T) {
	tb := New[string]()
	keys := []string{"zz", "aa", "mm", "a", "zzz", "ab", "\x00", "\xff\xff\xff"}
	for _, k := range keys {
		tb.Put([]byte(k), k)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	if got := rangeKeys(tb); !slices.Equal(got, want) {
		t.Fatalf("Range order = %q, want %q", got, want)
	}
	tb.Delete([]byte("mm"))
	want = slices.DeleteFunc(want, func(k string) bool { return k == "mm" })
	if got := rangeKeys(tb); !slices.Equal(got, want) {
		t.Fatalf("Range order after delete = %q, want %q", got, want)
	}
	// Replacement must not duplicate the entry.
	tb.Put([]byte("aa"), "again")
	if got := rangeKeys(tb); !slices.Equal(got, want) {
		t.Fatalf("Range after replacement = %q, want %q", got, want)
	}
}

func TestRangeVisitsAll(t *testing.T) {
	tb := New[int]()
	for i := 0; i < 100; i++ {
		tb.Put([]byte(fmt.Sprintf("r%02d", i)), i)
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
	for _, k := range [][]byte{make([]byte, MaxKeyLen+1), {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put of a %d-byte key did not panic", len(k))
				}
			}()
			New[int]().Put(k, 1)
		}()
	}
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
		keys := rangeKeys(tb)
		return len(keys) == len(ref) && slices.IsSorted(keys)
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
	keys := []string{"a", "ab", "aba", "abz", "ac", "b", "zzz"}
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
	if got := rangeKeys(tab); !slices.Equal(got, keys) {
		t.Fatalf("Range order = %q, want %q", got, keys)
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
	// A larger mixed-length set, given in no particular order, keeps Get
	// and Range consistent after Clone.
	var keys []string
	for i := 0; i < 64; i++ {
		keys = append(keys, fmt.Sprintf("%02d", i))
		keys = append(keys, fmt.Sprintf("a%c%c", 'a'+i/8, 'a'+i%8)) // 3-byte names under "a"
	}
	keys = append(keys, "a") // a prefix of 64 other names
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = "v" + k
	}
	tab := NewFromSorted(keys, vals)
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
		if n != len(keys) {
			t.Fatalf("Range visited %d, want %d", n, len(keys))
		}
	}
}
