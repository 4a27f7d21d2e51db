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
// file, which it must pass while naming the format it found, and over the
// same bytes relabelled as the previous format version, which it must
// refuse with the version error and leave unmodified.
func TestRunChecksImageAndRefusesOldFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.hart")
	db, err := hart.Open(path, hart.Options{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value")); err != nil {
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
	for _, want := range []string{"100 records", "clean shutdown", format, "fsck: ok"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("healthy store: output lacks %q:\n%s", want, stdout.String())
		}
	}

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const versionOff = 72 // pmem.LabelBase + 8: the superblock's version word
	binary.LittleEndian.PutUint64(img[versionOff:], hart.FormatVersion-1)
	v1 := filepath.Join(dir, "v1.hart")
	if err := os.WriteFile(v1, img, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{v1}, &stdout, &stderr); code != 1 {
		t.Fatalf("version-1 image: exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, hart.ErrVersionMismatch.Error()) || !strings.Contains(msg, "image version 1") {
		t.Errorf("version-1 image: stderr does not name the version mismatch: %s", msg)
	}
	if kept, err := os.ReadFile(v1); err != nil || !bytes.Equal(kept, img) {
		t.Errorf("version-1 image was modified (read err %v)", err)
	}
}
