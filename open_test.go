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
	// slots, 2 kept every value in an object of its own — is refused as it
	// stands, by an error naming both versions: not converted, not
	// reformatted.
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
// same superblock adopt-or-match behaviour as Open.
func TestRestoreAdoptsGeometry(t *testing.T) {
	db, err := New(Options{
		HashKeyLen:      3,
		ValueClasses:    []int64{8, 32},
		ArenaSize:       2 << 20,
		CrashSimulation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("key"), []byte("value-that-needs-32")); err != nil {
		t.Fatal(err)
	}
	img, err := db.CrashImage()
	if err != nil {
		t.Fatal(err)
	}

	// Zero options adopt the persisted geometry.
	db2, err := Restore(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db2.Get([]byte("key")); !ok || string(v) != "value-that-needs-32" {
		t.Fatalf("restored Get = %q, %v", v, ok)
	}

	// Conflicting options are refused.
	if _, err := Restore(img, Options{ValueClasses: []int64{8, 16}}); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("Restore with wrong table: err = %v, want ErrGeometryMismatch", err)
	}
}
