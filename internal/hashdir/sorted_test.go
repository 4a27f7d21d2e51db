package hashdir

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// TestNewFromSorted: bulk construction is observably identical to
// repeated Put — same lookups, same sorted key list — and keeps the load
// factor below the grow threshold.
func TestNewFromSorted(t *testing.T) {
	for _, n := range []int{0, 1, 11, 1000} {
		keys := make([]string, n)
		vals := make([]int, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%06d", i)
			vals[i] = i
		}
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
		if _, ok := bulk.Get([]byte("absent")); ok {
			t.Fatalf("n=%d: phantom key", n)
		}
		bs, is := bulk.SortedKeys(), inc.SortedKeys()
		if len(bs) != len(is) {
			t.Fatalf("n=%d: sorted lengths differ", n)
		}
		for i := range bs {
			if bs[i] != is[i] {
				t.Fatalf("n=%d: sorted[%d] = %q vs %q", n, i, bs[i], is[i])
			}
		}
		for i := range bulk.segs {
			sg := &bulk.segs[i]
			if sg.live > 0 && (int(sg.live)+1)*maxLoadDen >= len(sg.slots)*maxLoadNum {
				t.Fatalf("n=%d: segment %d over load threshold: %d live in %d slots", n, i, sg.live, len(sg.slots))
			}
			if sg.live == 0 && sg.slots != nil {
				t.Fatalf("n=%d: empty segment %d holds %d slots", n, i, len(sg.slots))
			}
		}
		// The table stays fully usable for subsequent mutation.
		bulk.Put([]byte("zzz"), -1)
		if !sort.StringsAreSorted(bulk.SortedKeys()) {
			t.Fatalf("n=%d: sorted list broken after Put", n)
		}
	}
}

// TestNewFromSortedRejectsUnsorted: out-of-order and duplicate keys panic
// (the caller contract recovery relies on).
func TestNewFromSortedRejectsUnsorted(t *testing.T) {
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}} {
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

// TestSortedListKeptAcrossCreation: once any table of a lineage has been
// asked for its sorted list, each clone → Put or Delete step hands the
// next snapshot a ready list, so a scan that reads every snapshot of a
// load never sorts again — also when the writer cloned before the scan's
// first call.
func TestSortedListKeptAcrossCreation(t *testing.T) {
	keys := pairKeys(alphabet62)
	tb := New[int]()
	for i, k := range keys[:100] {
		tb.Put(k, i)
	}
	if tb.sorted.Load() != nil {
		t.Fatal("a lineage nobody scanned holds a sorted list")
	}
	nu := tb.Clone() // the writer's clone, taken before the scan
	tb.SortedKeys()  // the scan, on the published table
	nu.Put(keys[100], 100)
	if nu.sorted.Load() == nil {
		t.Fatal("a clone taken before the first SortedKeys has no list after its Put")
	}
	tb = nu
	for i, k := range keys[101:] {
		nu := tb.Clone()
		nu.Put(k, i)
		if i%3 == 0 {
			nu.Delete(keys[i])
		}
		if nu.sorted.Load() == nil {
			t.Fatalf("creation %d: the new snapshot has no sorted list", i)
		}
		tb = nu
	}
	var want []string
	tb.Range(func(k []byte, _ int) bool {
		want = append(want, string(k))
		return true
	})
	slices.Sort(want)
	if got := tb.SortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("derived list has %d keys, the table %d", len(got), len(want))
	}
}
