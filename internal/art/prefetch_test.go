package art

import (
	"bytes"
	"testing"
)

// nearMisses returns key and the keys a walk for it must tell apart: one
// byte longer, one shorter, the last byte changed, and past MaxKeyLen.
func nearMisses(key []byte) [][]byte {
	out := [][]byte{key, append(bytes.Clone(key), 0), append(bytes.Clone(key), 'x')}
	if n := len(key); n > 0 {
		bumped := bytes.Clone(key)
		bumped[n-1]++
		out = append(out, key[:n-1], bumped)
	}
	long := append(bytes.Clone(key), bytes.Repeat([]byte{'a'}, MaxKeyLen+2-len(key))...)
	return append(out, long)
}

// prefetchTree holds a node of every kind, each with a terminator and
// every child with one of its own, and a path chained through links.
func prefetchTree(t *testing.T) (*Root, [][]byte) {
	tr := new(Root)
	var keys [][]byte
	put := func(k []byte) {
		keys = append(keys, k)
		tr.Insert(k, uint64(len(keys))) // values from 1: a miss reads 0
	}
	for _, fan := range []int{3, 16, 48, 256} {
		stem := []byte{'f', byte(fan)}
		put(stem)
		for i := 0; i < fan; i++ {
			put(append(bytes.Clone(stem), byte(i)))
			put(append(bytes.Clone(stem), byte(i), 'x', 'y'))
		}
	}
	stem := "chained-path-abcdefgh"
	put([]byte(stem + "1"))
	put([]byte(stem + "2"))
	put([]byte(stem[:9]))
	if st := tr.Stats(); st.Node4s == 0 || st.Node16s == 0 || st.Node48s == 0 || st.Node256s == 0 {
		t.Fatalf("tree lacks a node kind: %+v", st)
	}
	return tr, keys
}

// TestPrefetchMatchesGet walks every stored key and its near misses down
// a tree with every node kind, alone and in one call with nil and empty
// roots among them, and holds each key's value to what Get finds.
func TestPrefetchMatchesGet(t *testing.T) {
	tr, stored := prefetchTree(t)
	var probes [][]byte
	for _, k := range stored {
		probes = append(probes, nearMisses(k)...)
	}
	probes = append(probes, nil, []byte{})

	var roots []*Root
	var keys [][]byte
	var want []uint64
	for i, k := range probes {
		v, _ := tr.Get(k)
		got := []uint64{12345}
		if Prefetch([]*Root{tr}, [][]byte{k}, got); got[0] != v {
			t.Fatalf("Prefetch(%q) = %d, Get = %d", k, got[0], v)
		}
		roots, keys, want = append(roots, tr), append(keys, k), append(want, v)
		switch i % 7 {
		case 3:
			roots, keys, want = append(roots, nil), append(keys, k), append(want, 0)
		case 5:
			roots, keys, want = append(roots, new(Root)), append(keys, k), append(want, 0)
		}
	}
	if len(keys) <= PrefetchWindow {
		t.Fatalf("only %d probes, want more than one window", len(keys))
	}
	got := make([]uint64, len(keys))
	for i := range got {
		got[i] = ^uint64(0) // a miss must overwrite it
	}
	Prefetch(roots, keys, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Prefetch of %d probes: key %d (%q) = %d, Get = %d", len(keys), i, keys[i], got[i], want[i])
		}
	}
	Prefetch(nil, nil, nil)
}
