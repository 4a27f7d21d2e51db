package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// openStoreFile creates a file-backed store with the given options,
// loads it with a few records and closes it. Returns the path.
func openStoreFile(t *testing.T, opts Options) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.hart")
	arena, fresh, err := pmem.OpenFileArena(path, opts.ArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatal("fresh file not reported fresh")
	}
	h, err := NewOnArena(arena, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}} {
		if err := h.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// reopen attaches to a store file with the given options.
func reopen(t *testing.T, path string, opts Options) (*HART, error) {
	t.Helper()
	arena, fresh, err := pmem.OpenFileArena(path, pmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("existing store reported fresh")
	}
	h, err := Open(arena, opts)
	if err != nil {
		arena.Close()
	}
	return h, err
}

// TestOpenAdoptsGeometry verifies zero options inherit the superblock's
// HashKeyLen and ValueClasses — reattaching needs no out-of-band record
// of the creation options.
func TestOpenAdoptsGeometry(t *testing.T) {
	created := Options{HashKeyLen: 3, ValueClasses: []int64{8, 24, 40}, ArenaSize: 4 << 20}
	path := openStoreFile(t, created)

	h, err := reopen(t, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	got := h.Options()
	if got.HashKeyLen != 3 {
		t.Fatalf("adopted HashKeyLen = %d, want 3", got.HashKeyLen)
	}
	if len(got.ValueClasses) != 3 || got.ValueClasses[1] != 24 {
		t.Fatalf("adopted ValueClasses = %v, want [8 24 40]", got.ValueClasses)
	}
	if v, ok := h.Get([]byte("beta")); !ok || string(v) != "2" {
		t.Fatalf("Get(beta) = %q, %v", v, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsGeometryMismatch verifies options that contradict the
// superblock refuse the attach instead of silently misindexing the store.
func TestOpenRejectsGeometryMismatch(t *testing.T) {
	path := openStoreFile(t, Options{HashKeyLen: 2, ValueClasses: []int64{8, 16}, ArenaSize: 4 << 20})

	if _, err := reopen(t, path, Options{HashKeyLen: 5}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("HashKeyLen mismatch: err = %v, want ErrGeometryMismatch", err)
	}
	if _, err := reopen(t, path, Options{ValueClasses: []int64{8, 16, 32}}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("ValueClasses mismatch: err = %v, want ErrGeometryMismatch", err)
	}
	// Naming the store's own geometry explicitly is fine.
	h, err := reopen(t, path, Options{HashKeyLen: 2, ValueClasses: []int64{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

// TestOpenRefusesHashKeyLenAboveDirectory hand-writes a kh the directory
// cannot hold (builds before the radix directory accepted up to 23) into a
// kh = 2 store's superblock, the way TestElasticReopen writes split slots.
// Open must refuse it with ErrGeometryMismatch naming the limit, before
// writing anything: the file's bytes stay as they were.
func TestOpenRefusesHashKeyLenAboveDirectory(t *testing.T) {
	for _, kh := range []uint64{hashdir.MaxKeyLen + 1, MaxKeyLen - 1} {
		path := openStoreFile(t, Options{HashKeyLen: 2, ArenaSize: 4 << 20})
		arena, _, err := pmem.OpenFileArena(path, pmem.Config{})
		if err != nil {
			t.Fatal(err)
		}
		arena.Write8(sbBase+sbOffHashKeyLen, kh)
		arena.Persist(sbBase+sbOffHashKeyLen, 8)
		if err := arena.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = reopen(t, path, Options{})
		if !errors.Is(err, ErrGeometryMismatch) {
			t.Fatalf("kh %d: err = %v, want ErrGeometryMismatch", kh, err)
		}
		if limit := fmt.Sprintf("at most %d bytes", hashdir.MaxKeyLen); !strings.Contains(err.Error(), limit) {
			t.Fatalf("kh %d: error %q does not name the limit", kh, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("kh %d: the refused Open changed the file", kh)
		}
	}
}

// TestOpenRejectsUnformattedArena verifies a raw arena with no HART
// superblock cannot be opened as a store.
func TestOpenRejectsUnformattedArena(t *testing.T) {
	arena, err := pmem.New(pmem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(arena, Options{}); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("unformatted arena: err = %v, want ErrNotFormatted", err)
	}
}

// TestOpenRefusesOlderFormatVersions verifies an image whose superblock
// names an earlier format — version 2 laid every value out behind a
// pointer, so its leaves would be misread, not merely slow — is refused
// with ErrVersionMismatch naming both versions, before recovery writes
// anything.
func TestOpenRefusesOlderFormatVersions(t *testing.T) {
	h := newHART(t)
	if err := h.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	durable, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v < FormatVersion; v++ {
		img, err := pmem.Attach(append([]byte(nil), durable...), pmem.Config{Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		img.Write8(sbBase+sbOffVersion, v)
		img.Persist(sbBase+sbOffVersion, 8)
		before := img.Persists()
		_, err = Open(img, Options{})
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("version %d: err = %v, want ErrVersionMismatch", v, err)
		}
		if both := fmt.Sprintf("image version %d, this build reads %d", v, FormatVersion); !strings.Contains(err.Error(), both) {
			t.Fatalf("version %d: error %q does not name both versions", v, err)
		}
		if n := img.Persists() - before; n != 0 {
			t.Fatalf("version %d: the refused Open persisted %d times", v, n)
		}
	}
}

// TestCleanFlagLifecycle verifies the superblock's shutdown marker: set
// by Close, cleared while the store is open, and reported by
// RecoveryStats.WasClean on the next attach.
func TestCleanFlagLifecycle(t *testing.T) {
	path := openStoreFile(t, Options{ArenaSize: 4 << 20})

	// First reopen: previous run Closed, so the image is clean.
	h, err := reopen(t, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h.LastRecoveryStats().WasClean {
		t.Fatal("image from a Closed store not reported clean")
	}
	// The open store is marked dirty on disk; abandon it without Close
	// (drop the arena by syncing and reopening the file independently).
	if err := h.Arena().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pmem.BackendOf(h.Arena()).Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := reopen(t, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.LastRecoveryStats().WasClean {
		t.Fatal("image abandoned without Close reported clean")
	}
	if v, ok := h2.Get([]byte("alpha")); !ok || string(v) != "1" {
		t.Fatalf("crash-recovered Get(alpha) = %q, %v", v, ok)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}

	// Close marked it clean again.
	h3, err := reopen(t, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !h3.LastRecoveryStats().WasClean {
		t.Fatal("image from a Closed store not reported clean on third open")
	}
	h3.Close()
}

// TestCloseRefusesFurtherOps verifies operations after Close fail with
// ErrClosed and that Close is idempotent.
func TestCloseRefusesFurtherOps(t *testing.T) {
	h, err := New(Options{ArenaSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Put([]byte("k2"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if err := h.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: err = %v, want ErrClosed", err)
	}
}
