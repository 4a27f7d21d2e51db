// Package hart is the public facade of this repository's reproduction of
// "HART: A Concurrent Hash-Assisted Radix Tree for DRAM-PM Hybrid Memory
// Systems" (Pan, Xie, Song — IEEE IPDPS 2019).
//
// A DB is a concurrent persistent key-value index: a DRAM hash directory
// routes the first few key bytes to one Adaptive Radix Tree per hash key;
// ART internal nodes stay in DRAM while leaves and values live on
// simulated persistent memory — a value of up to 8 bytes inside its leaf,
// a longer one in an object of its own — committed through EPallocator's
// chunk bitmaps so that crashes can neither tear an operation nor leak PM.
//
// Quick start — a durable store backed by a file:
//
//	db, err := hart.Open("store.hart", hart.Options{})
//	...
//	db.Put([]byte("key"), []byte("value"))
//	v, ok := db.Get([]byte("key"))
//	buf := make([]byte, 0, hart.MaxValueLen)
//	v, ok = db.GetInto([]byte("key"), buf) // zero-alloc lookup
//	db.Scan([]byte("a"), []byte("b"), func(k, v []byte) bool { ... })
//	db.Close()
//
// Open creates the file on first use and re-attaches on every later run,
// reading the store's geometry from its persisted superblock — no save
// step, no remembering the options the store was created with. New builds
// the same index over a purely in-memory arena for tests and benchmarks.
//
// Lookups (Get, GetInto, Contains) are lock-free: they read an atomic
// snapshot of the hash directory and of the target ART and validate the
// persistent-memory reads against a per-ART seqlock, so readers never
// block writers and scale with no shared-lock traffic. GetInto reuses
// the caller's buffer and performs no heap allocation; Contains decides
// presence without copying the value at all.
//
// Durability round trip (the simulated-PM equivalent of remapping a DAX
// file after a restart):
//
//	img, _ := db.CrashImage()       // what PM holds if power fails now
//	db2, _ := hart.Restore(img, hart.Options{CrashSimulation: true})
//
// See DESIGN.md for the full architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package hart

import (
	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Key and value limits (paper Section III.A.5).
const (
	// MaxKeyLen is the maximum key length in bytes.
	MaxKeyLen = core.MaxKeyLen
	// MaxValueLen is the maximum value length in bytes, the paper's larger
	// value class. Values of up to 8 bytes are stored in the record's PM
	// leaf (one PM object per record, one PM read per lookup, one persist
	// per same-length update); longer ones in a 16-byte value object.
	MaxValueLen = core.MaxValueLen
)

// FormatVersion is the on-media format version this build writes and the
// only one it opens (ErrVersionMismatch otherwise). Version 3 moved values
// of up to 8 bytes into the leaf; version 4 gives a key of up to 14 bytes
// a 24-byte leaf instead of a 40-byte one. Stores written by earlier
// builds are refused, never converted.
const FormatVersion = core.FormatVersion

// Errors re-exported from the core implementation.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = core.ErrNotFound
	// ErrKeyTooLong reports a key above MaxKeyLen bytes.
	ErrKeyTooLong = core.ErrKeyTooLong
	// ErrValueTooLong reports a value above MaxValueLen bytes.
	ErrValueTooLong = core.ErrValueTooLong
	// ErrGeometryMismatch reports Options naming a HashKeyLen other than
	// the one the store was created with, or a store whose persisted
	// object-class table is not this format's {24, 40, 16}: 24- and
	// 40-byte leaves and 16-byte value objects.
	ErrGeometryMismatch = core.ErrGeometryMismatch
	// ErrNotFormatted reports an arena or file holding no HART store.
	ErrNotFormatted = core.ErrNotFormatted
	// ErrVersionMismatch reports a store written under another format
	// version; it is refused as it stands, never converted or reformatted.
	ErrVersionMismatch = core.ErrVersionMismatch
	// ErrTruncatedFile reports a backing file shorter than the arena its
	// header describes (torn creation or external truncation).
	ErrTruncatedFile = pmem.ErrTruncatedFile
)

// Options configures a DB.
type Options struct {
	// HashKeyLen is kh, the number of leading key bytes routed by the
	// hash directory: 1 to 3 (default 2, the paper's setting).
	HashKeyLen int
	// ArenaSize is the simulated PM capacity in bytes (default 64 MiB).
	ArenaSize int64
	// PMWriteNs / PMReadNs enable PM latency emulation when non-zero,
	// e.g. 300/100, 300/300 or 600/300 as in the paper. Penalties are
	// injected by busy-waiting so measured wall time reflects them.
	PMWriteNs, PMReadNs int64
	// CrashSimulation tracks a separate durable view so CrashImage and
	// crash-point injection work (costs memory and write overhead).
	CrashSimulation bool
	// RecoveryWorkers parallelises recovery's leaf scan, orphan sweep and ART
	// rebuild across that many goroutines (0 or 1 = serial).
	RecoveryWorkers int
	// LazyRecovery defers per-shard ART builds out of Open and Restore:
	// the store serves traffic immediately after the scan and orphan
	// sweep, and each shard's ART is built on first touch or by
	// DrainRecovery (typically started in the background right after Open
	// or Restore). Eager and lazy recovery do the same PM reads and the
	// same builds; they differ only in whether the builds run before Open
	// returns.
	LazyRecovery bool
}

// Record is one key-value pair for DB.PutBatch. The alias makes the
// promoted batch methods callable: their signatures name this type.
type Record = core.Record

// DB is a HART index. All methods are safe for concurrent use; writers to
// different ARTs (different leading key bytes) run in parallel. Bulk
// writes should prefer PutBatch, which groups records by ART and pays the
// directory lookup, the write lock and the seqlock section once per group
// instead of once per key; each record still commits by Put's protocol.
type DB struct {
	*core.HART
}

// coreOptions translates the public options.
func (o Options) coreOptions() core.Options {
	opts := core.Options{
		HashKeyLen:      o.HashKeyLen,
		ArenaSize:       o.ArenaSize,
		Tracking:        o.CrashSimulation,
		RecoveryWorkers: o.RecoveryWorkers,
		LazyRecovery:    o.LazyRecovery,
	}
	if o.PMWriteNs > 0 || o.PMReadNs > 0 {
		opts.Latency = latency.Config{
			Mode:        latency.ModeSpin,
			PMWriteNs:   o.PMWriteNs,
			PMReadNs:    o.PMReadNs,
			DRAMReadNs:  100,
			DRAMWriteNs: 15,
		}
		opts.CacheModel = opts.Latency.ReadDeltaNs() > 0
	}
	return opts
}

// New creates an empty DB over a fresh simulated PM arena. The store
// lives in process memory; use Open for one that survives the process.
func New(opts Options) (*DB, error) {
	h, err := core.New(opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return &DB{HART: h}, nil
}

// Open creates or attaches a durable DB backed by the file at path.
//
// A missing or empty file is created with Options.ArenaSize bytes
// (default 64 MiB) and formatted. An existing file is validated (arena
// header, HART superblock) and recovered: interrupted updates are
// completed from their micro-logs and the index is rebuilt from the
// persistent leaves, exactly as after a crash. A HashKeyLen left zero
// adopts the one persisted in the store's superblock; a non-zero one must
// match it, and the persisted object-class table must be this format's
// (ErrGeometryMismatch, before anything is written). A file that is torn,
// truncated, or not a HART store is refused — never silently reformatted.
//
// On Linux the file is mapped MAP_SHARED, so every completed operation
// survives a process crash; Sync (and Close) flush the mapping so a
// machine crash loses at most the writes since the last sync. On other
// platforms a heap buffer is written back atomically on Sync/Close.
// Close marks the shutdown clean in the superblock and releases the
// file; the file's bytes are a valid arena image throughout, so tools
// like hartfsck can read it directly.
func Open(path string, opts Options) (*DB, error) {
	co := opts.coreOptions()
	arena, fresh, err := pmem.OpenFileArena(path, co.ArenaConfig())
	if err != nil {
		return nil, err
	}
	var h *core.HART
	if fresh {
		h, err = core.NewOnArena(arena, co)
	} else {
		h, err = core.Open(arena, co)
	}
	if err != nil {
		arena.Close()
		return nil, err
	}
	return &DB{HART: h}, nil
}

// Restore attaches to a durable PM image (from CrashImage, or the bytes
// of an Open file) and runs recovery: interrupted updates are completed
// from their micro-logs and the hash directory plus all ART internal
// nodes are rebuilt from the persistent leaves (paper Algorithm 7).
// Geometry options follow the same superblock adopt-or-match rule as
// Open.
func Restore(image []byte, opts Options) (*DB, error) {
	co := opts.coreOptions()
	arena, err := pmem.Attach(image, co.ArenaConfig())
	if err != nil {
		return nil, err
	}
	h, err := core.Open(arena, co)
	if err != nil {
		return nil, err
	}
	return &DB{HART: h}, nil
}

// CrashImage returns the bytes persistent memory would hold if power
// failed right now: everything persisted survives, everything else is
// gone. Requires Options.CrashSimulation.
func (db *DB) CrashImage() ([]byte, error) {
	return db.Arena().DurableImage()
}
