package hashdir

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestNewFromSorted: bulk construction, from keys in any order, is
// observably identical to repeated Put — same lookups, same Range.
func TestNewFromSorted(t *testing.T) {
	for _, n := range []int{0, 1, 11, 1000} {
		keys := make([]string, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%c%c", 'A'+i/62, alphabet62[i%62])
			vals[i] = i
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) {
			keys[i], keys[j] = keys[j], keys[i]
			vals[i], vals[j] = vals[j], vals[i]
		})
		bulk := NewFromSorted(keys, vals)
		inc := New[int]()
		for i, k := range keys {
			inc.Put([]byte(k), vals[i])
		}
		if bulk.Len() != inc.Len() {
			t.Fatalf("n=%d: Len %d vs %d", n, bulk.Len(), inc.Len())
		}
		for i, k := range keys {
			if v, ok := bulk.Get([]byte(k)); !ok || v != vals[i] {
				t.Fatalf("n=%d: Get(%q) = (%d, %v)", n, k, v, ok)
			}
		}
		if _, ok := bulk.Get([]byte("abs")); ok {
			t.Fatalf("n=%d: phantom key", n)
		}
		if bk, ik := rangeKeys(bulk), rangeKeys(inc); !slices.Equal(bk, ik) || !slices.IsSorted(bk) {
			t.Fatalf("n=%d: Range %q vs %q", n, bk, ik)
		}
		if bulk.DRAMBytes() != inc.DRAMBytes() {
			t.Fatalf("n=%d: DRAMBytes %d vs %d", n, bulk.DRAMBytes(), inc.DRAMBytes())
		}
		// The table stays fully usable for subsequent mutation.
		bulk.Put([]byte("zzz"), -1)
		if ks := rangeKeys(bulk); len(ks) != n+1 || ks[n] != "zzz" {
			t.Fatalf("n=%d: Range after Put ends %q", n, ks[len(ks)-1])
		}
	}
}

// TestNewFromSortedRejectsDuplicates: a key given twice panics (its
// presence bit is already set), however far apart the two are.
func TestNewFromSortedRejectsDuplicates(t *testing.T) {
	for _, keys := range [][]string{{"a", "a"}, {"ab", "b", "ab"}, {"\xff\xff\xff", "\x00", "\xff\xff\xff"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFromSorted(%q) did not panic", keys)
				}
			}()
			NewFromSorted(keys, make([]int, len(keys)))
		}()
	}
}

// model is the reference the table is checked against: a map plus its
// keys in sorted order.
type model map[string]int

func (m model) sorted() []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestDifferentialAgainstSortedMap runs random Put, Delete, Get, Seek
// both ways, Range and NewFromSorted on keys of one to three bytes, over
// an alphabet that includes 0x00 and 0xff, against a sorted map. Bounds
// run from the empty key to four bytes, so they fall between, on and past
// every level of the table.
func TestDifferentialAgainstSortedMap(t *testing.T) {
	const alphabet = "\x00\x01a\x7f\x80\xfe\xff"
	randKey := func(rng *rand.Rand, lo, hi int) []byte {
		k := make([]byte, lo+rng.Intn(hi-lo+1))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return k
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb, m := New[int](), model{}
		for step := 0; step < 6000; step++ {
			k := randKey(rng, 1, MaxKeyLen)
			switch r := rng.Intn(100); {
			case r < 35:
				_, had := m[string(k)]
				if added := tb.Put(k, step); added == had {
					t.Fatalf("seed %d step %d: Put(%q) added=%v, model had=%v", seed, step, k, added, had)
				}
				m[string(k)] = step
			case r < 55:
				_, had := m[string(k)]
				if got := tb.Delete(k); got != had {
					t.Fatalf("seed %d step %d: Delete(%q) = %v, model had=%v", seed, step, k, got, had)
				}
				delete(m, string(k))
			case r < 70:
				want, had := m[string(k)]
				if got, ok := tb.Get(k); ok != had || got != want {
					t.Fatalf("seed %d step %d: Get(%q) = (%d, %v), model (%d, %v)", seed, step, k, got, ok, want, had)
				}
			case r < 95:
				bound := randKey(rng, 0, MaxKeyLen+1)
				if rng.Intn(8) == 0 {
					bound = nil
				}
				checkSeek(t, tb, m, bound, fmt.Sprintf("seed %d step %d", seed, step))
			case r < 98:
				checkRange(t, tb, m, fmt.Sprintf("seed %d step %d", seed, step))
			default:
				keys := make([]string, 0, len(m))
				vals := make([]int, 0, len(m))
				for k, v := range m { // map order: unsorted
					keys, vals = append(keys, k), append(vals, v)
				}
				tb = NewFromSorted(keys, vals)
			}
			if tb.Len() != len(m) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, tb.Len(), len(m))
			}
		}
		checkRange(t, tb, m, fmt.Sprintf("seed %d end", seed))
	}
}

// checkSeek compares Seek in both directions at bound with the model.
func checkSeek(t *testing.T, tb *Table[int], m model, bound []byte, where string) {
	t.Helper()
	keys := m.sorted()
	i := sort.SearchStrings(keys, string(bound))
	k, v, ok := tb.Seek(bound, false)
	if i < len(keys) {
		if !ok || string(k) != keys[i] || v != m[keys[i]] {
			t.Fatalf("%s: Seek(%q, false) = (%q, %d, %v), model %q", where, bound, k, v, ok, keys[i])
		}
	} else if ok {
		t.Fatalf("%s: Seek(%q, false) = %q past the model's last key", where, bound, k)
	}
	if bound == nil {
		i = len(keys) // nil is above every key descending
	}
	k, v, ok = tb.Seek(bound, true)
	if i > 0 {
		if !ok || string(k) != keys[i-1] || v != m[keys[i-1]] {
			t.Fatalf("%s: Seek(%q, true) = (%q, %d, %v), model %q", where, bound, k, v, ok, keys[i-1])
		}
	} else if ok {
		t.Fatalf("%s: Seek(%q, true) = %q below the model's first key", where, bound, k)
	}
}

// checkRange compares a full Range, and one stopped part way, with the
// model.
func checkRange(t *testing.T, tb *Table[int], m model, where string) {
	t.Helper()
	keys := m.sorted()
	var got []string
	tb.Range(func(k []byte, v int) bool {
		if mv, ok := m[string(k)]; !ok || mv != v {
			t.Fatalf("%s: Range saw (%q, %d), model (%d, %v)", where, k, v, mv, ok)
		}
		got = append(got, string(k))
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("%s: Range visited %d keys, model %d", where, len(got), len(keys))
	}
	stop, n := len(keys)/2, 0
	var last []byte
	tb.Range(func(k []byte, _ int) bool {
		last = bytes.Clone(k)
		n++
		return n <= stop
	})
	if len(keys) > 0 && (n != stop+1 || string(last) != keys[stop]) {
		t.Fatalf("%s: Range stopped after %d keys at %q, want %d at %q", where, n, last, stop+1, keys[stop])
	}
}
