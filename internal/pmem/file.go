package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
)

// File-backed arenas: the durable counterpart of the simulated in-memory
// medium. The file's bytes ARE the arena image — the same layout
// CrashImage/Restore exchange — so a store written through a FileBackend
// survives a real process exit with no application-level save step, and
// existing image tooling (hartfsck reads the file and Restores it) keeps
// working on the same files.
//
// On Linux the file is mmap'd MAP_SHARED, the DAX programming model:
// every store lands in the kernel page cache immediately, so a process
// crash (panic, SIGKILL) loses nothing that was stored, and Sync/Close
// msync the mapping so a machine crash loses at most the lines written
// since the last sync. On real persistent memory the mapping would be
// DAX and Persist would be the CLWB point; here Persist is a no-op
// because the page cache already holds every store.
//
// Where mmap is unavailable (other platforms, or exotic filesystems that
// refuse the mapping) the backend degrades to a heap buffer written back
// on Sync/Close through WriteFileAtomic — portable, with the weaker
// contract that a crash between syncs loses everything since the last
// one, but never corrupts the previous image (temp file + rename).

// Errors returned by the file backend.
var (
	// ErrTruncatedFile reports a backing file too short to hold the arena
	// it claims (torn creation or external truncation).
	ErrTruncatedFile = errors.New("pmem: backing file truncated or torn")
)

// FileBackend is a file-backed PM medium. See the package comment above
// for the durability contract of the mmap and fallback modes.
type FileBackend struct {
	path   string
	f      *os.File
	data   []byte
	mapped bool // true: data is an mmap of f; false: heap buffer fallback
}

// Bytes implements Backend.
func (b *FileBackend) Bytes() []byte { return b.data }

// Persist implements Backend. Stores already live in the page cache
// (mmap) or are deferred to Sync (fallback); on DAX hardware this would
// be the flush+fence point.
func (b *FileBackend) Persist(off, n int64) {}

// Sync implements Backend: msync for the mapping, atomic write-back for
// the fallback.
func (b *FileBackend) Sync() error {
	if b.mapped {
		if err := b.msync(); err != nil {
			return err
		}
		return b.f.Sync()
	}
	return WriteFileAtomic(b.path, b.data, 0o644)
}

// Close implements Backend: Sync, then unmap and close the file.
func (b *FileBackend) Close() error {
	if b.f == nil && !b.mapped {
		if b.data == nil {
			return nil // already closed
		}
		err := b.Sync()
		b.data = nil
		return err
	}
	syncErr := b.Sync()
	if b.mapped {
		if err := b.munmap(); err != nil && syncErr == nil {
			syncErr = err
		}
	}
	b.data = nil
	if b.f != nil {
		if err := b.f.Close(); err != nil && syncErr == nil {
			syncErr = err
		}
		b.f = nil
	}
	return syncErr
}

// OpenFile opens (or creates) path as a file-backed PM medium. A missing
// or empty file is created with the given size and reported fresh — the
// caller formats an arena onto it; an existing file keeps its own size
// and is reported non-fresh — the caller attaches. The distinction is
// the file's, not the caller's: opening an existing store with a
// different size never resizes or clobbers it.
func OpenFile(path string, size int64) (*FileBackend, bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("pmem: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("pmem: stat %s: %w", path, err)
	}
	fresh := st.Size() == 0
	if fresh {
		if size < HeaderSize {
			f.Close()
			return nil, false, fmt.Errorf("pmem: arena size %d below minimum %d", size, HeaderSize)
		}
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("pmem: size %s to %d bytes: %w", path, size, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("pmem: sync %s: %w", path, err)
		}
	} else {
		size = st.Size()
		if size < HeaderSize {
			f.Close()
			return nil, false, fmt.Errorf("%w: %s is %d bytes, below the %d-byte arena header",
				ErrTruncatedFile, path, size, HeaderSize)
		}
	}
	b := &FileBackend{path: path, f: f}
	if err := b.mmap(size); err != nil {
		// Portable fallback: load the whole image into a heap buffer and
		// write it back on Sync/Close.
		data := make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("pmem: read %s: %w", path, err)
		}
		f.Close()
		b.f, b.data, b.mapped = nil, data, false
	}
	return b, fresh, nil
}

// OpenFileArena opens or creates a file-backed arena at path: a fresh
// file is sized to cfg.Size and formatted, an existing file is validated
// (magic, capacity vs file length) and attached. The returned fresh flag
// tells the caller whether the arena needs its higher-level format
// (allocator, superblock) or its recovery path.
func OpenFileArena(path string, cfg Config) (*Arena, bool, error) {
	be, fresh, err := OpenFile(path, cfg.Size)
	if err != nil {
		return nil, false, err
	}
	var a *Arena
	if fresh {
		a, err = NewOnBackend(be, cfg)
	} else {
		a, err = AttachBackend(be, cfg)
	}
	if err != nil {
		be.Close()
		return nil, false, err
	}
	return a, fresh, nil
}

// validateImage checks an existing image's arena header against the
// region that holds it: magic present, recorded capacity equal to the
// region size (a shorter file is torn, a longer one is not the image the
// header describes), cursor within bounds.
func validateImage(data []byte) error {
	if len(data) < HeaderSize || binary.LittleEndian.Uint64(data[offMagic:]) != arenaMagic {
		return ErrBadMagic
	}
	capacity := binary.LittleEndian.Uint64(data[offCapacity:])
	if capacity != uint64(len(data)) {
		return fmt.Errorf("%w: header records %d-byte arena but region is %d bytes",
			ErrTruncatedFile, capacity, len(data))
	}
	cursor := binary.LittleEndian.Uint64(data[offCursor:])
	if cursor < HeaderSize || cursor > capacity {
		return fmt.Errorf("%w: bump cursor %d outside [%d,%d]",
			ErrTruncatedFile, cursor, HeaderSize, capacity)
	}
	return nil
}
