package core

import (
	"bytes"
	"encoding/binary"
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

// TestOpenAdoptsGeometry verifies a zero HashKeyLen inherits the
// superblock's — reattaching needs no out-of-band record of the creation
// options.
func TestOpenAdoptsGeometry(t *testing.T) {
	path := openStoreFile(t, Options{HashKeyLen: 3, ArenaSize: 4 << 20})

	h, err := reopen(t, path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.Options().HashKeyLen; got != 3 {
		t.Fatalf("adopted HashKeyLen = %d, want 3", got)
	}
	if v, ok := h.Get([]byte("beta")); !ok || string(v) != "2" {
		t.Fatalf("Get(beta) = %q, %v", v, ok)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSuperblockLayout pins the format-4 superblock's bytes in a fresh
// store file: magic, version, kh, the object-class table — 24- and 40-byte
// leaves, 16-byte values — the clean flag at their documented offsets from
// the label area, pmem.LabelBase, and zeros in the words after the table.
func TestSuperblockLayout(t *testing.T) {
	path := openStoreFile(t, Options{HashKeyLen: 3, ArenaSize: 4 << 20})
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		off  int
		want uint64
	}{
		{"magic", 0, 0x48415254434f5245}, // "HARTCORE"
		{"version", 8, 4},
		{"kh", 16, 3},
		{"class count", 24, 3},
		{"flags (clean)", 32, 1},
		{"reserved", 40, 0},
		{"class 0 size (leaf24)", 48, 24},
		{"class 1 size (leaf40)", 56, 40},
		{"class 2 size (value16)", 64, 16},
		{"unused", 72, 0},
		{"unused", 80, 0},
		{"unused", 88, 0},
	} {
		if got := binary.LittleEndian.Uint64(img[pmem.LabelBase+w.off:]); got != w.want {
			t.Errorf("superblock +%d (%s) = %#x, want %#x", w.off, w.name, got, w.want)
		}
	}
}

// refusedOpen writes the given superblock words into the store file at
// path, then opens it. The open must fail before writing anything: the
// file's bytes, the clean-flag word included, stay as they were. Returns
// the open's error.
func refusedOpen(t *testing.T, path string, words map[pmem.Ptr]uint64) error {
	t.Helper()
	arena, _, err := pmem.OpenFileArena(path, pmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for off, w := range words {
		arena.Write8(sbBase+off, w)
	}
	arena.Persist(sbBase, int(pmem.LabelSize))
	if err := arena.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := reopen(t, path, Options{})
	if err == nil {
		h.Close()
		t.Fatalf("superblock words %v: Open succeeded", words)
	}
	after, err2 := os.ReadFile(path)
	if err2 != nil {
		t.Fatal(err2)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("superblock words %v: the refused Open changed the file", words)
	}
	return err
}

// TestOpenRejectsGeometryMismatch verifies a HashKeyLen that contradicts
// the superblock, and a persisted class table other than the format's
// {24, 40, 16}, refuse the attach before writing anything instead of
// misindexing the store.
func TestOpenRejectsGeometryMismatch(t *testing.T) {
	path := openStoreFile(t, Options{HashKeyLen: 2, ArenaSize: 4 << 20})

	if _, err := reopen(t, path, Options{HashKeyLen: 3}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("HashKeyLen mismatch: err = %v, want ErrGeometryMismatch", err)
	}
	// Naming the store's own geometry explicitly is fine.
	h, err := reopen(t, path, Options{HashKeyLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()

	for _, table := range []struct {
		name  string
		words map[pmem.Ptr]uint64
	}{
		{"{24, 40, 16, 32}", map[pmem.Ptr]uint64{sbOffNumClasses: 4, sbOffClasses + 24: 32}},
		{"{24, 40}", map[pmem.Ptr]uint64{sbOffNumClasses: 2}},
		{"{40, 24, 16}", map[pmem.Ptr]uint64{sbOffClasses: 40, sbOffClasses + 8: 24}},
		{"{24, 40, 32}", map[pmem.Ptr]uint64{sbOffClasses + 16: 32}},
		{"format 3's {40, 8, 16}", map[pmem.Ptr]uint64{sbOffClasses: 40, sbOffClasses + 8: 8}},
	} {
		path := openStoreFile(t, Options{HashKeyLen: 2, ArenaSize: 4 << 20})
		if err := refusedOpen(t, path, table.words); !errors.Is(err, ErrGeometryMismatch) {
			t.Fatalf("class table %s: err = %v, want ErrGeometryMismatch", table.name, err)
		}
	}
}

// TestOpenRefusesHashKeyLenAboveDirectory hand-writes a kh the directory
// cannot hold (builds before the radix directory accepted up to 23) into a
// kh = 2 store's superblock, the way TestElasticReopen writes split slots.
// Open must refuse it with ErrGeometryMismatch naming the limit, before
// writing anything: the file's bytes stay as they were.
func TestOpenRefusesHashKeyLenAboveDirectory(t *testing.T) {
	for _, kh := range []uint64{hashdir.MaxKeyLen + 1, MaxKeyLen - 1} {
		path := openStoreFile(t, Options{HashKeyLen: 2, ArenaSize: 4 << 20})
		err := refusedOpen(t, path, map[pmem.Ptr]uint64{sbOffHashKeyLen: kh})
		if !errors.Is(err, ErrGeometryMismatch) {
			t.Fatalf("kh %d: err = %v, want ErrGeometryMismatch", kh, err)
		}
		if limit := fmt.Sprintf("at most %d bytes", hashdir.MaxKeyLen); !strings.Contains(err.Error(), limit) {
			t.Fatalf("kh %d: error %q does not name the limit", kh, err)
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
// names an earlier format — version 3 had one 40-byte leaf class, version
// 2 laid every value out behind a pointer, so their leaves would be
// misread, not merely slow — is refused with ErrVersionMismatch naming
// both versions, before recovery writes anything.
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
