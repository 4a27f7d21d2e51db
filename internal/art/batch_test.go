package art

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchMatchesSequentialCow drives a batch and a per-key CowInsert
// sequence with the same operations and requires identical results, while
// the base tree stays bit-for-bit readable with its original contents.
func TestBatchMatchesSequentialCow(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := New()
	for i := 0; i < 500; i++ {
		nu, _, _ := base.CowInsert([]byte(randKey(rng)), uint64(i))
		base = nu
	}
	baseContents := dump(base)

	for round := 0; round < 50; round++ {
		b := base.BeginBatch()
		ref := base
		n := 1 + rng.Intn(64)
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
		got := b.Commit()
		sameContents(t, dump(ref), got, fmt.Sprintf("round %d committed", round))
		sameContents(t, baseContents, base, fmt.Sprintf("round %d base", round))
	}
}

// TestBatchTerminatorAndSplitPaths pins the structural edge cases: keys
// that are prefixes of other keys (terminator leaves), prefix splits, and
// in-batch updates of keys the same batch inserted.
func TestBatchTerminatorAndSplitPaths(t *testing.T) {
	base := New()
	for _, k := range []string{"abcde", "abcdf", "abxyz"} {
		nu, _, _ := base.CowInsert([]byte(k), 1)
		base = nu
	}
	b := base.BeginBatch()
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
	sameContents(t, map[string]uint64{"abcde": 1, "abcdf": 1, "abxyz": 1}, base, "base")
}

// TestBatchPanicsAfterCommit pins the ownership rule: a committed batch's
// tags no longer confer mutation rights, so Insert must refuse.
func TestBatchPanicsAfterCommit(t *testing.T) {
	b := New().BeginBatch()
	b.Insert([]byte("k"), 1)
	b.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("Insert on committed batch did not panic")
		}
	}()
	b.Insert([]byte("k2"), 2)
}
