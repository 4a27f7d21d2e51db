package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/casl-sdsu/hart/internal/epalloc"
)

// The allocator only fails on corruption or exhaustion, so the write
// paths' error branches are unreachable organically; these tests trip
// them with epalloc's fault injectors and assert the cleanup contract:
// the error surfaces, no PM object is stranded, no ulog slot stays busy
// (Check == CheckQuiescent verifies all of it), and the operation can be
// retried successfully.
//
// Which allocator calls a write makes depends on where its value lives, so
// the tests name their values by shape: short ones the leaf holds, long
// ones in a value object.
var (
	shortOld, shortNew = []byte("old"), []byte("new")
	longOld, longNew   = []byte("old-in-an-object"), []byte("new-in-an-object")
)

func TestInsertSetBitValueFailure(t *testing.T) {
	h := newHART(t)
	h.alloc.FailSetBitAfter(0) // first SetBit = value commit
	if err := h.Put([]byte("alpha"), longOld); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
	if _, ok := h.Get([]byte("alpha")); ok {
		t.Fatal("failed insert is visible")
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after failed insert: %v", err)
	}
	if err := h.Put([]byte("alpha"), longOld); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, longOld) {
		t.Fatalf("retry not visible: %q %v", v, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSetBitLeafFailure(t *testing.T) {
	for _, c := range []struct {
		name     string
		v1, v2   []byte
		leafSetB int64 // which SetBit of the insert commits the leaf
	}{
		{"inline", shortOld, shortNew, 0},
		{"value object", longOld, longNew, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHART(t)
			h.alloc.FailSetBitAfter(c.leafSetB)
			if err := h.Put([]byte("alpha"), c.v1); !errors.Is(err, epalloc.ErrInjected) {
				t.Fatalf("Put = %v, want ErrInjected", err)
			}
			// The leaf was already published to the tree when the commit
			// failed; the rollback must unpublish it, release the committed
			// value if it has one, and leave nothing in the dead slot's
			// word 0 (Check looks).
			if _, ok := h.Get([]byte("alpha")); ok {
				t.Fatal("rolled-back insert is visible")
			}
			if h.Len() != 0 {
				t.Fatalf("Len = %d after rolled-back insert", h.Len())
			}
			if err := h.Check(); err != nil {
				t.Fatalf("Check after rollback: %v", err)
			}
			if err := h.Put([]byte("alpha"), c.v2); err != nil {
				t.Fatalf("retry Put: %v", err)
			}
			if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, c.v2) {
				t.Fatalf("retry not visible: %q %v", v, ok)
			}
			if err := h.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpdateSetBitFailureReclaimsULog(t *testing.T) {
	for _, c := range []struct {
		name     string
		old, new []byte
	}{
		{"object to object", longOld, longNew},
		{"inline to object", shortOld, longNew},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHART(t)
			if err := h.Put([]byte("alpha"), c.old); err != nil {
				t.Fatal(err)
			}
			h.alloc.FailSetBitAfter(0)
			if err := h.Put([]byte("alpha"), c.new); !errors.Is(err, epalloc.ErrInjected) {
				t.Fatalf("update = %v, want ErrInjected", err)
			}
			if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, c.old) {
				t.Fatalf("old value lost: %q %v", v, ok)
			}
			// Check includes allocator quiescence: an armed or busy ulog
			// slot — what the pre-fix code left behind — fails here.
			if err := h.Check(); err != nil {
				t.Fatalf("Check after failed update: %v", err)
			}
			if err := h.Put([]byte("alpha"), c.new); err != nil {
				t.Fatalf("retry update: %v", err)
			}
			if v, _ := h.Get([]byte("alpha")); !bytes.Equal(v, c.new) {
				t.Fatalf("retry not visible: %q", v)
			}
			if err := h.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUpdateReleaseFailureLeaksVisiblyThenRecovers(t *testing.T) {
	for _, c := range []struct {
		name string
		new  []byte
	}{
		{"object to object", longNew},
		// The update changed the record's shape before it failed: the new
		// ref must have been republished all the same.
		{"object to inline", shortNew},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHART(t)
			if err := h.Put([]byte("alpha"), longOld); err != nil {
				t.Fatal(err)
			}
			h.alloc.FailClearBitAfter(0) // trips Retire of the old value
			err := h.Put([]byte("alpha"), c.new)
			if !errors.Is(err, epalloc.ErrInjected) {
				t.Fatalf("update = %v, want ErrInjected", err)
			}
			// The update committed at the swing before the release failed.
			if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, c.new) {
				t.Fatalf("committed update lost: %q %v", v, ok)
			}
			// The old value's bit is leaked — Check must say so (the ulog
			// was still reclaimed, so the failure mode is the leak, not a
			// dead slot).
			if err := h.Check(); err == nil {
				t.Fatal("Check missed the leaked old value")
			}
			// Recovery's orphan sweep reclaims it.
			if err := h.Rebuild(); err != nil {
				t.Fatalf("Rebuild: %v", err)
			}
			if n := h.LastRecoveryStats().OrphanValues; n != 1 {
				t.Fatalf("recovery reclaimed %d orphan values, want 1", n)
			}
			if err := h.Check(); err != nil {
				t.Fatalf("Check after recovery: %v", err)
			}
			if v, _ := h.Get([]byte("alpha")); !bytes.Equal(v, c.new) {
				t.Fatalf("value lost across recovery: %q", v)
			}
		})
	}
}

func TestDeleteReleaseFailureRepublishes(t *testing.T) {
	for _, value := range [][]byte{shortOld, longOld} {
		h := newHART(t)
		if err := h.Put([]byte("alpha"), value); err != nil {
			t.Fatal(err)
		}
		h.alloc.FailClearBitAfter(0) // trips the leaf's Release
		if err := h.Delete([]byte("alpha")); !errors.Is(err, epalloc.ErrInjected) {
			t.Fatalf("Delete = %v, want ErrInjected", err)
		}
		// The delete never committed (leaf bit still set); the record must
		// remain fully readable, shape and all — the pre-fix code dropped
		// it from the tree.
		if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, value) {
			t.Fatalf("record lost by failed delete: %q %v", v, ok)
		}
		if h.Len() != 1 {
			t.Fatalf("Len = %d, want 1", h.Len())
		}
		if err := h.Check(); err != nil {
			t.Fatalf("Check after failed delete: %v", err)
		}
		if err := h.Delete([]byte("alpha")); err != nil {
			t.Fatalf("retry Delete: %v", err)
		}
		if _, ok := h.Get([]byte("alpha")); ok {
			t.Fatal("record survived retried delete")
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteReleaseFailureStillDeletes(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), longOld); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailClearBitAfter(1) // leaf reset succeeds, value release fails
	if err := h.Delete([]byte("alpha")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("Delete = %v, want ErrInjected", err)
	}
	// The leaf-bit reset committed the delete; the record is gone and the
	// size accounting must reflect it even though cleanup partly failed.
	if _, ok := h.Get([]byte("alpha")); ok {
		t.Fatal("record visible after committed delete")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
	// The value bit leaked: recovery's orphan sweep reclaims it.
	if err := h.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if n := h.LastRecoveryStats().OrphanValues; n != 1 {
		t.Fatalf("recovery reclaimed %d orphan values, want 1", n)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
}
