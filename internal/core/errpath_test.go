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

func TestInsertSetBitValueFailure(t *testing.T) {
	h := newHART(t)
	h.alloc.FailSetBitAfter(0) // first SetBit = value commit
	if err := h.Put([]byte("alpha"), []byte("v1")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
	if _, ok := h.Get([]byte("alpha")); ok {
		t.Fatal("failed insert is visible")
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after failed insert: %v", err)
	}
	if err := h.Put([]byte("alpha"), []byte("v1")); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("retry not visible: %q %v", v, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSetBitLeafFailure(t *testing.T) {
	h := newHART(t)
	h.alloc.FailSetBitAfter(1) // second SetBit = leaf commit
	if err := h.Put([]byte("alpha"), []byte("v1")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("Put = %v, want ErrInjected", err)
	}
	// The leaf was already published to the tree when the commit failed;
	// the rollback must unpublish it and release the committed value.
	if _, ok := h.Get([]byte("alpha")); ok {
		t.Fatal("rolled-back insert is visible")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after rolled-back insert", h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after rollback: %v", err)
	}
	if err := h.Put([]byte("alpha"), []byte("v2")); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("retry not visible: %q %v", v, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateSetBitFailureReclaimsULog(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailSetBitAfter(0)
	if err := h.Put([]byte("alpha"), []byte("new")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("update = %v, want ErrInjected", err)
	}
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, []byte("old")) {
		t.Fatalf("old value lost: %q %v", v, ok)
	}
	// Check includes allocator quiescence: an armed or busy ulog slot —
	// what the pre-fix code left behind — fails here.
	if err := h.Check(); err != nil {
		t.Fatalf("Check after failed update: %v", err)
	}
	if err := h.Put([]byte("alpha"), []byte("new")); err != nil {
		t.Fatalf("retry update: %v", err)
	}
	if v, _ := h.Get([]byte("alpha")); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("retry not visible: %q", v)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateReleaseFailureLeaksVisiblyThenRecovers(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailResetBitAfter(0) // trips Retire of the old value
	err := h.Put([]byte("alpha"), []byte("new"))
	if !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("update = %v, want ErrInjected", err)
	}
	// The update committed at the pointer swing before the release failed.
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("committed update lost: %q %v", v, ok)
	}
	// The old value's bit is leaked — Check must say so (the ulog was
	// still reclaimed, so the failure mode is the leak, not a dead slot).
	if err := h.Check(); err == nil {
		t.Fatal("Check missed the leaked old value")
	}
	// Recovery's orphan sweep reclaims it.
	if err := h.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
	if v, _ := h.Get([]byte("alpha")); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("value lost across recovery: %q", v)
	}
}

func TestUnloggedUpdateSetBitFailure(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true, UnloggedUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("alpha"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailSetBitAfter(0)
	if err := h.Put([]byte("alpha"), []byte("new")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("update = %v, want ErrInjected", err)
	}
	if v, _ := h.Get([]byte("alpha")); !bytes.Equal(v, []byte("old")) {
		t.Fatalf("old value lost: %q", v)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after failed unlogged update: %v", err)
	}
	if err := h.Put([]byte("alpha"), []byte("new")); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteResetBitFailureRepublishes(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailResetBitAfter(0) // trips ResetBit of the leaf
	if err := h.Delete([]byte("alpha")); !errors.Is(err, epalloc.ErrInjected) {
		t.Fatalf("Delete = %v, want ErrInjected", err)
	}
	// The delete never committed (leaf bit still set); the record must
	// remain fully readable — the pre-fix code dropped it from the tree.
	if v, ok := h.Get([]byte("alpha")); !ok || !bytes.Equal(v, []byte("v1")) {
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

func TestDeleteReleaseFailureStillDeletes(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	h.alloc.FailResetBitAfter(1) // leaf reset succeeds, value release fails
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
	// The value bit leaked; recovery reclaims it.
	if err := h.Rebuild(); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
}
