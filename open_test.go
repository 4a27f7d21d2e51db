package hart

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// superblockVersionOff is the file offset of the store superblock's format
// version word (pmem.LabelBase + 8).
const superblockVersionOff = 72

// TestOpenRestartRoundTrip drives a Put/Delete mix into a file-backed
// store, closes it, reopens the file and checks full content equivalence
// against an in-memory reference map — under both eager and lazy
// recovery.
func TestOpenRestartRoundTrip(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "eager"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.hart")
			db, err := Open(path, Options{ArenaSize: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			ref := map[string]string{}
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("k%05d", rng.Intn(2000))
				if rng.Intn(4) == 0 {
					err := db.Delete([]byte(key))
					if _, live := ref[key]; live {
						if err != nil {
							t.Fatalf("delete %s: %v", key, err)
						}
						delete(ref, key)
					} else if !errors.Is(err, ErrNotFound) {
						t.Fatalf("delete of missing %s: %v", key, err)
					}
					continue
				}
				val := fmt.Sprintf("v%d", rng.Intn(1<<20))
				if err := db.Put([]byte(key), []byte(val)); err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
				ref[key] = val
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2, err := Open(path, Options{LazyRecovery: lazy, RecoveryWorkers: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if !db2.LastRecoveryStats().WasClean {
				t.Fatal("closed store not reported clean on reopen")
			}
			if db2.Len() != len(ref) {
				t.Fatalf("reopened Len = %d, reference %d", db2.Len(), len(ref))
			}
			for key, val := range ref {
				if v, ok := db2.Get([]byte(key)); !ok || string(v) != val {
					t.Fatalf("reopened Get(%s) = %q, %v; want %q", key, v, ok, val)
				}
			}
			got := 0
			db2.Scan(nil, nil, func(k, v []byte) bool {
				if want, ok := ref[string(k)]; !ok || want != string(v) {
					t.Fatalf("scan surfaced (%q, %q), reference %q", k, v, want)
				}
				got++
				return true
			})
			if got != len(ref) {
				t.Fatalf("scan surfaced %d records, reference %d", got, len(ref))
			}
			if err := db2.Check(); err != nil {
				t.Fatalf("fsck after restart: %v", err)
			}
		})
	}
}

// TestOpenSurvivesProcessExit proves the acceptance criterion end to
// end: a child *process* writes records through hart.Open and exits
// without any save step (and without Close, the harder variant); the
// parent reopens the same file and reads everything back.
func TestOpenSurvivesProcessExit(t *testing.T) {
	dir := t.TempDir()
	for _, clean := range []bool{true, false} {
		name := "clean-close"
		if !clean {
			name = "no-close"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".hart")
			cmd := exec.Command(os.Args[0], "-test.run=TestHelperWriteStore$")
			cmd.Env = append(os.Environ(),
				"HART_TEST_WRITE_STORE="+path,
				fmt.Sprintf("HART_TEST_CLEAN_CLOSE=%v", clean))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child writer failed: %v\n%s", err, out)
			}

			db, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got := db.LastRecoveryStats().WasClean; got != clean {
				t.Fatalf("WasClean = %v after a %s child", got, name)
			}
			if db.Len() != 500 {
				t.Fatalf("reopened Len = %d, want 500 (data written by another process lost)", db.Len())
			}
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("proc%04d", i))
				want := []byte(fmt.Sprintf("val%04d", i))
				if v, ok := db.Get(key); !ok || !bytes.Equal(v, want) {
					t.Fatalf("Get(%s) = %q, %v; want %q", key, v, ok, want)
				}
			}
			if err := db.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHelperWriteStore is not a real test: it is the child-process body
// of TestOpenSurvivesProcessExit, active only under its environment
// variables. It writes 500 records through hart.Open and exits — with a
// clean Close or a bare os.Exit, per HART_TEST_CLEAN_CLOSE.
func TestHelperWriteStore(t *testing.T) {
	path := os.Getenv("HART_TEST_WRITE_STORE")
	if path == "" {
		t.Skip("helper process body; run via TestOpenSurvivesProcessExit")
	}
	db, err := Open(path, Options{ArenaSize: 8 << 20})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Put([]byte(fmt.Sprintf("proc%04d", i)), []byte(fmt.Sprintf("val%04d", i))); err != nil {
			t.Fatalf("child put: %v", err)
		}
	}
	if os.Getenv("HART_TEST_CLEAN_CLOSE") == "true" {
		if err := db.Close(); err != nil {
			t.Fatalf("child close: %v", err)
		}
		return
	}
	// Simulated process crash: exit with the mapping unsynced and the
	// store still marked dirty. On the mmap backend the page cache holds
	// every completed Put; this is exactly what the parent asserts.
	os.Exit(0)
}

// TestOpenRefusesDamagedFiles verifies hart.Open surfaces errors for
// files that are not healthy HART stores instead of clobbering them.
func TestOpenRefusesDamagedFiles(t *testing.T) {
	dir := t.TempDir()

	// Build one healthy store to mutilate.
	path := filepath.Join(dir, "store.hart")
	db, err := Open(path, Options{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.hart")
	if err := os.WriteFile(torn, img[:len(img)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(torn, Options{}); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("torn file: err = %v, want ErrTruncatedFile", err)
	}

	short := filepath.Join(dir, "short.hart")
	if err := os.WriteFile(short, []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short, Options{}); !errors.Is(err, ErrTruncatedFile) {
		t.Fatalf("short file: err = %v, want ErrTruncatedFile", err)
	}

	// Geometry conflict against the healthy store.
	if _, err := Open(path, Options{HashKeyLen: 7}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("geometry conflict: err = %v, want ErrGeometryMismatch", err)
	}
	// A new store with a kh the directory cannot hold is refused.
	if _, err := Open(filepath.Join(dir, "kh4.hart"), Options{HashKeyLen: 4}); err == nil || !strings.Contains(err.Error(), "invalid HashKeyLen 4") {
		t.Fatalf("kh 4: err = %v, want the invalid HashKeyLen error", err)
	}

	// A store of an earlier format version — 1 had 24-byte update-log
	// slots, 2 kept every value in an object of its own, 3 had one 40-byte
	// leaf class — is refused as it stands, by Open and by Restore, with
	// an error naming both versions: not converted, not reformatted.
	for v := uint64(1); v < FormatVersion; v++ {
		name := fmt.Sprintf("version-%d file", v)
		path := filepath.Join(dir, fmt.Sprintf("v%d.hart", v))
		old := bytes.Clone(img)
		binary.LittleEndian.PutUint64(old[superblockVersionOff:], v)
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, Options{})
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: err = %v, want ErrVersionMismatch", name, err)
		}
		if both := fmt.Sprintf("image version %d, this build reads %d", v, FormatVersion); !strings.Contains(err.Error(), both) {
			t.Fatalf("%s: error %q does not name both versions (%q)", name, err, both)
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, old) {
			t.Fatalf("refused %s was modified (read err %v)", name, err)
		}
		restored := bytes.Clone(old)
		if _, err := Restore(restored, Options{}); !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: Restore err = %v, want ErrVersionMismatch", name, err)
		}
		if !bytes.Equal(restored, old) {
			t.Fatalf("the refused Restore of a %s modified its image", name)
		}
	}

	// All refusals left the original file untouched.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, after) {
		t.Fatal("a refused Open modified the store file")
	}
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if v, ok := db2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("store damaged by refused opens: Get(k) = %q, %v", v, ok)
	}
}

// TestRestoreAdoptsGeometry verifies the in-memory Restore path gets the
// same superblock adopt-or-refuse behaviour as Open: a zero HashKeyLen
// adopts the store's, and a different HashKeyLen or a persisted class
// table other than {24, 40, 16} is refused.
func TestRestoreAdoptsGeometry(t *testing.T) {
	db, err := New(Options{HashKeyLen: 3, ArenaSize: 2 << 20, CrashSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("key"), []byte("value-in-obj")); err != nil {
		t.Fatal(err)
	}
	img, err := db.CrashImage()
	if err != nil {
		t.Fatal(err)
	}

	// Zero options adopt the persisted geometry.
	db2, err := Restore(slices.Clone(img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kh := db2.Options().HashKeyLen; kh != 3 {
		t.Fatalf("restored HashKeyLen = %d, want 3", kh)
	}
	if v, ok := db2.Get([]byte("key")); !ok || string(v) != "value-in-obj" {
		t.Fatalf("restored Get = %q, %v", v, ok)
	}

	// Conflicting options are refused.
	if _, err := Restore(slices.Clone(img), Options{HashKeyLen: 2}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("Restore with another HashKeyLen: err = %v, want ErrGeometryMismatch", err)
	}
	// So is an image whose class table says 32 where the format has 40.
	const class1Off = 64 + 56 // the superblock's second class size
	binary.LittleEndian.PutUint64(img[class1Off:], 32)
	if _, err := Restore(img, Options{}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("Restore of a {24, 32, 16} table: err = %v, want ErrGeometryMismatch", err)
	}
}

// TestRestoreModelsCache checks that a restored DB models the CPU cache
// in front of PM as New does: repeated Gets of one key miss the cache
// about once, not once per Get.
func TestRestoreModelsCache(t *testing.T) {
	opts := Options{ArenaSize: 2 << 20, CrashSimulation: true, PMReadNs: 300}
	db, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("key"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	img, err := db.CrashImage()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	misses := func(db *DB) int64 {
		before := db.Arena().Clock().Snapshot().PMReadMisses
		for i := 0; i < 100; i++ {
			if _, ok := db.Get([]byte("key")); !ok {
				t.Fatal("key lost")
			}
		}
		return db.Arena().Clock().Snapshot().PMReadMisses - before
	}
	fresh, got := misses(db), misses(restored)
	if got > fresh+2 {
		t.Fatalf("100 Gets after Restore missed the cache %d times, after New %d", got, fresh)
	}
}

// TestRestoreRefusesBadKeyLength: a live leaf whose header claims a key
// length of 0, or one longer than its slot holds — above 14 bytes in a
// 24-byte leaf, above MaxKeyLen in a 40-byte one — cannot have been
// written by Put, so recovery refuses the image and names the leaf instead
// of indexing it under an empty or truncated key, or reading the rest of
// its key out of the next slot — eager and lazy alike.
func TestRestoreRefusesBadKeyLength(t *testing.T) {
	db, err := New(Options{ArenaSize: 2 << 20, CrashSimulation: true})
	if err != nil {
		t.Fatal(err)
	}
	short := []byte("poked-key-0042")          // 14 bytes: a 24-byte leaf
	long := []byte("poked-key-0042-long-key!") // 24 bytes: a 40-byte leaf
	for _, k := range [][]byte{[]byte("before"), short, long, []byte("after")} {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	img, err := db.CrashImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		key    []byte
		pokes  []byte
		leafOf string
	}{
		{short, []byte{0, 15, MaxKeyLen, MaxKeyLen + 1}, "24-byte"},
		{long, []byte{0, MaxKeyLen + 1}, "40-byte"},
	} {
		// The key starts at byte 10 of its leaf; the key length is byte 8.
		leaf := bytes.Index(img, c.key) - 10
		if leaf < 0 || int(img[leaf+8]) != len(c.key) {
			t.Fatalf("leaf of %q not found in the image", c.key)
		}
		for _, n := range c.pokes {
			for _, lazy := range []bool{false, true} {
				poked := slices.Clone(img)
				poked[leaf+8] = n
				_, err := Restore(poked, Options{LazyRecovery: lazy})
				want := fmt.Sprintf("leaf %d with key length %d; its %s slot", leaf, n, c.leafOf)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("key length %d in a %s leaf, lazy %v: Restore err = %v, want one containing %q",
						n, c.leafOf, lazy, err, want)
				}
			}
		}
	}
}
