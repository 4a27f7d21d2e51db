package art

import (
	"fmt"
	"math/rand"
	"testing"
)

// dump materialises a tree's contents for snapshot comparison.
func dump(t *Tree) map[string]uint64 {
	m := make(map[string]uint64)
	t.Walk(nil, nil, false, func(k []byte, v uint64) bool {
		m[string(k)] = v
		return true
	})
	return m
}

func sameContents(t *testing.T, want map[string]uint64, tree *Tree, label string) {
	t.Helper()
	checkShape(t, tree)
	got := dump(tree)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("%s: key %q = %d,%v want %d", label, k, gv, ok, v)
		}
	}
	if tree.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, want %d", label, tree.Len(), len(want))
	}
}

// TestCowLeavesOriginalUnchanged is the core COW guarantee: after any
// CowInsert/CowDelete, every previously taken snapshot still reads
// exactly what it read when taken.
func TestCowLeavesOriginalUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tree := New()
	live := make(map[string]uint64)

	type snap struct {
		tree     *Tree
		contents map[string]uint64
	}
	var snaps []snap

	for i := 0; i < 4000; i++ {
		if rng.Intn(100) < 5 {
			snaps = append(snaps, snap{tree, dump(tree)})
		}
		k := []byte(randKey(rng))
		if rng.Intn(3) == 0 {
			nu, old, ok := tree.CowDelete(k)
			if want, present := live[string(k)]; present {
				if !ok || old != want {
					t.Fatalf("CowDelete(%q) = %d,%v want %d,true", k, old, ok, want)
				}
				delete(live, string(k))
			} else if ok {
				t.Fatalf("CowDelete(%q) deleted a missing key", k)
			}
			tree = nu
		} else {
			v := rng.Uint64()
			nu, old, updated := tree.CowInsert(k, v)
			if want, present := live[string(k)]; present != updated || (updated && old != want) {
				t.Fatalf("CowInsert(%q) = %d,%v want %d,%v", k, old, updated, want, present)
			}
			live[string(k)] = v
			tree = nu
		}
	}

	sameContents(t, live, tree, "final tree")
	for i, s := range snaps {
		sameContents(t, s.contents, s.tree, fmt.Sprintf("snapshot %d", i))
	}
}

// TestCowDeleteMissingReturnsSameTree checks the no-op fast path: deleting
// an absent key must not clone anything.
func TestCowDeleteMissingReturnsSameTree(t *testing.T) {
	tree := New()
	tree, _, _ = tree.CowInsert([]byte("alpha"), 1)
	tree, _, _ = tree.CowInsert([]byte("beta"), 2)
	nu, _, ok := tree.CowDelete([]byte("gamma"))
	if ok {
		t.Fatal("deleted a missing key")
	}
	if nu != tree {
		t.Fatal("no-op CowDelete returned a different tree")
	}
}

// TestCowGrowthAndShrink exercises every node-width transition
// (4→16→48→256 and back) through the COW mutators while holding a
// snapshot across each transition.
func TestCowGrowthAndShrink(t *testing.T) {
	tree := New()
	var snaps []*Tree
	var sizes []int
	for i := 0; i < 256; i++ {
		tree, _, _ = tree.CowInsert([]byte{'k', byte(i)}, uint64(i))
		if i == 3 || i == 15 || i == 47 || i == 255 {
			snaps = append(snaps, tree)
			sizes = append(sizes, tree.Len())
		}
	}
	for i := 255; i >= 0; i-- {
		nu, old, ok := tree.CowDelete([]byte{'k', byte(i)})
		if !ok || old != uint64(i) {
			t.Fatalf("CowDelete(k%d) = %d,%v", i, old, ok)
		}
		tree = nu
	}
	if !tree.Empty() {
		t.Fatalf("tree not empty after deleting all: %d left", tree.Len())
	}
	for si, s := range snaps {
		if s.Len() != sizes[si] {
			t.Fatalf("snapshot %d mutated: Len %d want %d", si, s.Len(), sizes[si])
		}
		for i := 0; i < sizes[si]; i++ {
			if v, ok := s.Get([]byte{'k', byte(i)}); !ok || v != uint64(i) {
				t.Fatalf("snapshot %d lost k%d (%d,%v)", si, i, v, ok)
			}
		}
	}
}
