package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hart "github.com/casl-sdsu/hart"
	"github.com/casl-sdsu/hart/internal/epalloc"
)

// TestRunChecksImageAndRefusesOldFormat runs hartfsck over a healthy store
// file, which it must pass while naming the format it found, how many
// records keep their value in the leaf and how many records each object
// class holds, and over the same bytes relabelled as each earlier format
// version, holding an object-class table other than {24, 40, 16}, or
// holding a 24-byte leaf whose header claims a 15-byte key, which it must
// refuse with the version, geometry or key-length error and leave
// unmodified.
func TestRunChecksImageAndRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.hart")
	db, err := hart.Open(path, hart.Options{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		value := []byte("value")
		if i < 30 {
			value = []byte("value-in-object")
		}
		key := fmt.Sprintf("key%03d", i)
		if i%4 == 0 {
			key += "-in-a-40B-leaf" // 20 bytes
		}
		if err := db.Put([]byte(key), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("healthy store: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	format := fmt.Sprintf("format: version %d (%d update-log slots of %d B)",
		hart.FormatVersion, epalloc.NumUpdateLogs, epalloc.ULogSlotSize)
	for _, want := range []string{
		"100 records", "70 inline, 30 out of line", "clean shutdown", format, "fsck: ok",
		"class leaf24   (24 B slots):     75 used", "class leaf40   (40 B slots):     25 used",
		"class value16  (16 B slots):     30 used",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("healthy store: output lacks %q:\n%s", want, stdout.String())
		}
	}

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// refused writes img to file, runs hartfsck over it and checks that it
	// exits 1 with stderr naming every one of want, and that the file is
	// unmodified.
	refused := func(name, file string, want ...string) {
		t.Helper()
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{path}, &stdout, &stderr); code != 1 {
			t.Fatalf("%s: exit %d, want 1\n%s%s", name, code, stdout.String(), stderr.String())
		}
		for _, w := range want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%s: stderr lacks %q: %s", name, w, stderr.String())
			}
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, img) {
			t.Errorf("%s was modified (read err %v)", name, err)
		}
	}
	const versionOff = 72 // pmem.LabelBase + 8: the superblock's version word
	for old := uint64(1); old < hart.FormatVersion; old++ {
		binary.LittleEndian.PutUint64(img[versionOff:], old)
		refused(fmt.Sprintf("version-%d image", old), fmt.Sprintf("v%d.hart", old),
			hart.ErrVersionMismatch.Error(),
			fmt.Sprintf("image version %d, this build reads %d", old, hart.FormatVersion))
	}
	binary.LittleEndian.PutUint64(img[versionOff:], hart.FormatVersion)
	const class1Off = 120 // pmem.LabelBase + 56: the superblock's second class size
	binary.LittleEndian.PutUint64(img[class1Off:], 32)
	refused("{24, 32, 16} class-table image", "classes.hart",
		hart.ErrGeometryMismatch.Error(), "{24, 32, 16}")
	binary.LittleEndian.PutUint64(img[class1Off:], 40)

	// The key starts at byte 10 of its leaf; the key length is byte 8.
	leaf := bytes.Index(img, []byte("key001")) - 10
	if leaf < 0 || img[leaf+8] != 6 {
		t.Fatal("leaf of key001 not found in the image")
	}
	img[leaf+8] = 15
	refused("15-byte key in a 24-byte leaf", "keylen.hart",
		fmt.Sprintf("leaf %d with key length 15; its 24-byte slot holds keys of 1 to 14 bytes", leaf))
}
