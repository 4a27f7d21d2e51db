package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
)

// scanRef filters the sorted key set to [start, end) with nil meaning
// unbounded — the reference both scan directions are checked against.
func scanRef(keys [][]byte, start, end []byte) [][]byte {
	var out [][]byte
	for _, k := range keys {
		if start != nil && bytes.Compare(k, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			continue
		}
		out = append(out, k)
	}
	return out
}

func collectScan(h *HART, start, end []byte, reverse bool, limit int) [][]byte {
	var out [][]byte
	visit := func(k, _ []byte) bool {
		out = append(out, append([]byte(nil), k...))
		return len(out) < limit
	}
	if reverse {
		h.ScanReverse(start, end, visit)
	} else {
		h.Scan(start, end, visit)
	}
	return out
}

// TestScanBoundsExhaustive cross-checks Scan and ScanReverse against the
// reference filter at every kh the directory supports, for every bound
// drawn from the key set, its neighbours (one byte off, truncations,
// extensions), the shard hash keys themselves (the ScanReverse end ==
// hash-key regression), nil and empty slices — crossed with truncating
// limits. The keys include keys shorter than kh (entries the ascending
// walk steps into), keys holding 0x00 and 0xff, and an all-0xff key of
// length kh, whose entry has no prefix successor.
func TestScanBoundsExhaustive(t *testing.T) {
	for kh := 1; kh <= 3; kh++ {
		t.Run(fmt.Sprintf("kh=%d", kh), func(t *testing.T) { testScanBounds(t, kh) })
	}
}

func testScanBounds(t *testing.T, kh int) {
	h, err := New(Options{ArenaSize: 16 << 20, HashKeyLen: kh})
	if err != nil {
		t.Fatal(err)
	}
	top := bytes.Repeat([]byte{0xff}, kh)
	keys := [][]byte{
		// Shard "aa" with several suffixes, including the key that IS the
		// hash key and keys longer than it.
		[]byte("aa"), []byte("aa0"), []byte("aab"), []byte("aabc"), []byte("aaz"),
		// Shard "ab" adjacent in hash order.
		[]byte("ab"), []byte("abb"),
		// A distant shard.
		[]byte("zz"), []byte("zzz"),
		// Keys shorter than kh at kh = 2 or 3.
		[]byte("a"), []byte("b"), []byte("q"), []byte("qq"),
		// Keys holding 0x00 and 0xff.
		{0}, {0, 0}, {0, 0, 0, 1}, []byte("a\x00"), []byte("a\x00\x00b"), []byte("aa\x00"),
		[]byte("a\xff"), []byte("a\xff\xff"), []byte("a\xff\xffb"), {0xff}, {0xff, 0}, {0xff, 'a'},
		// The all-0xff key of length kh and keys extending it.
		top, append(bytes.Clone(top), 0), append(bytes.Clone(top), 0xff, 0xff),
	}
	seen := map[string]bool{}
	var sorted [][]byte
	for i, k := range keys {
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		if err := h.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })

	bounds := [][]byte{nil, {}}
	seen = map[string]bool{}
	add := func(b []byte) {
		if !seen[string(b)] {
			seen[string(b)] = true
			bounds = append(bounds, b)
		}
	}
	for _, k := range sorted {
		add(k)
		add(k[:len(k)-1])                 // truncation (may hit the hash key)
		add(append(bytes.Clone(k), 0))    // just above
		add(append(bytes.Clone(k), 0xff)) // above every one-byte extension
		kk := bytes.Clone(k)
		kk[len(kk)-1]++
		add(kk) // sibling
	}
	// The hash keys themselves and near misses.
	for _, b := range []string{"aa", "ab", "ac", "a", "b", "zz", "zzzz", "\xff\xff\xff\xff"} {
		add([]byte(b))
	}

	for _, start := range bounds {
		for _, end := range bounds {
			want := scanRef(sorted, start, end)
			for _, limit := range []int{1, 2, len(want), len(sorted) + 1} {
				if limit < 1 {
					continue
				}
				got := collectScan(h, start, end, false, limit)
				exp := want
				if len(exp) > limit {
					exp = exp[:limit]
				}
				if !equalKeySlices(got, exp) {
					t.Fatalf("Scan(%q,%q) limit %d = %q, want %q", start, end, limit, got, exp)
				}

				gotR := collectScan(h, start, end, true, limit)
				expR := reverseKeys(want)
				if len(expR) > limit {
					expR = expR[:limit]
				}
				if !equalKeySlices(gotR, expR) {
					t.Fatalf("ScanReverse(%q,%q) limit %d = %q, want %q", start, end, limit, gotR, expR)
				}
			}
		}
	}
}

// TestScanReverseEndEqualsHashKey pins the regression directly: with end
// exactly equal to a shard's hash key, no key of that shard (every one of
// which is >= end) may be visited, and the preceding shard must still be
// walked. Before the fix ScanReverse descended the excluded shard with an
// empty in-shard bound and depended on the iterator rejecting every leaf.
func TestScanReverseEndEqualsHashKey(t *testing.T) {
	h := newHART(t)
	for _, k := range []string{"aa", "aaq", "ab", "abq", "abz"} {
		if err := h.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := collectScan(h, nil, []byte("ab"), true, 99)
	want := [][]byte{[]byte("aaq"), []byte("aa")}
	if !equalKeySlices(got, want) {
		t.Fatalf("ScanReverse(nil, \"ab\") = %q, want %q", got, want)
	}
	// Same bound forwards, for symmetry.
	got = collectScan(h, nil, []byte("ab"), false, 99)
	want = [][]byte{[]byte("aa"), []byte("aaq")}
	if !equalKeySlices(got, want) {
		t.Fatalf("Scan(nil, \"ab\") = %q, want %q", got, want)
	}
}

// TestScanEmptyVsNilBounds pins the normalisation: empty start behaves
// like nil, empty end selects the empty range (nothing sorts below "").
func TestScanEmptyVsNilBounds(t *testing.T) {
	h := newHART(t)
	for _, k := range []string{"aa", "aaq", "zz"} {
		if err := h.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, reverse := range []bool{false, true} {
		all := collectScan(h, nil, nil, reverse, 99)
		if len(all) != 3 {
			t.Fatalf("full scan (reverse=%v) returned %d keys", reverse, len(all))
		}
		if got := collectScan(h, []byte{}, nil, reverse, 99); !equalKeySlices(got, all) {
			t.Fatalf("empty start != nil start (reverse=%v): %q", reverse, got)
		}
		if got := collectScan(h, nil, []byte{}, reverse, 99); len(got) != 0 {
			t.Fatalf("empty end visited %q (reverse=%v)", got, reverse)
		}
	}
}

func equalKeySlices(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func reverseKeys(in [][]byte) [][]byte {
	out := make([][]byte, len(in))
	for i, k := range in {
		out[len(in)-1-i] = k
	}
	return out
}
