package art

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchMatchesSequentialCow drives a batch and a per-key CowInsert
// sequence with the same operations and requires identical results, and
// holds the batch's committed tree and the one it publishes in a Root to
// the same shape.
func TestBatchMatchesSequentialCow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 50; round++ {
		b, ref := New().BeginBatch(), New()
		n := 1 + rng.Intn(600)
		for i := 0; i < n; i++ {
			k := []byte(randKey(rng))
			v := rng.Uint64()
			bOld, bUpd := b.Insert(k, v)
			nu, rOld, rUpd := ref.CowInsert(k, v)
			ref = nu
			if bOld != rOld || bUpd != rUpd {
				t.Fatalf("round %d: Insert(%q) = (%d,%v), CowInsert = (%d,%v)", round, k, bOld, bUpd, rOld, rUpd)
			}
		}
		var got *Tree
		var r Root
		if round%2 == 0 {
			got = b.Commit()
		} else {
			b.Publish(&r)
			got = &Tree{root: r.p.Load(), size: ref.Len()}
		}
		sameContents(t, dump(ref), got, fmt.Sprintf("round %d committed", round))
		if a, c := shape(ref.root), shape(got.root); a != c {
			t.Fatalf("round %d: batch built\n%s\ncopying built\n%s", round, c, a)
		}
	}
}

// TestBatchTerminatorAndSplitPaths pins the structural edge cases: keys
// that are prefixes of other keys (terminator leaves), prefix splits, and
// in-batch updates of keys the same batch inserted.
func TestBatchTerminatorAndSplitPaths(t *testing.T) {
	b := New().BeginBatch()
	for _, k := range []string{"abcde", "abcdf", "abxyz"} {
		b.Insert([]byte(k), 1)
	}
	ops := []struct {
		key     string
		val     uint64
		wantUpd bool
	}{
		{"abc", 2, false},     // terminator inside compressed path
		{"abcd", 3, false},    // terminator at existing node
		{"abcde", 4, true},    // update base key
		{"ab", 5, false},      // split above
		{"abc", 6, true},      // update a key this batch inserted
		{"zzz", 7, false},     // fresh top-level branch
		{"abcdefg", 8, false}, // extend below a leaf
	}
	want := map[string]uint64{"abcdf": 1, "abxyz": 1}
	for _, op := range ops {
		_, upd := b.Insert([]byte(op.key), op.val)
		if upd != op.wantUpd {
			t.Fatalf("Insert(%q): updated=%v want %v", op.key, upd, op.wantUpd)
		}
		want[op.key] = op.val
	}
	want["abcde"] = 4
	want["abc"] = 6
	sameContents(t, want, b.Commit(), "committed")
}

// TestBatchPanicsAfterCommit pins the ownership rule: a batch edits in
// place, so it refuses to begin on a tree that already has nodes, and to
// go on once it has handed its tree over.
func TestBatchPanicsAfterCommit(t *testing.T) {
	b := New().BeginBatch()
	b.Insert([]byte("k"), 1)
	tr := b.Commit()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Insert on committed batch", func() { b.Insert([]byte("k2"), 2) })
	mustPanic("BeginBatch on a non-empty tree", func() { tr.BeginBatch() })
	var r Root
	b = New().BeginBatch()
	b.Publish(&r)
	mustPanic("Insert on published batch", func() { b.Insert([]byte("k2"), 2) })
}
