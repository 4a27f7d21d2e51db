// Package core implements HART, the Hash-assisted Adaptive Radix Tree of
// Pan, Xie and Song (IPDPS 2019) — a concurrent, persistent key-value
// index for DRAM-PM hybrid memory.
//
// Structure (paper Fig. 1): a DRAM hash directory maps the first
// HashKeyLen bytes of every key to one ART; the ART indexes the remaining
// key bytes and its leaves live on PM. Internal nodes and the directory
// are volatile and rebuilt by recovery from the persistent leaves
// (selective consistency/persistence, Section III.A.2). PM space for
// leaves and value objects comes from EPallocator (package epalloc), whose
// chunk bitmaps both commit objects and prevent persistent memory leaks.
//
// Concurrency extends Section III.A.3: writers still serialise per ART
// (one RWMutex per shard, so writes to distinct ARTs proceed in parallel),
// but the read path is lock-free. The hash directory publishes each change
// as one immutable page behind an atomic pointer (on the rare shard
// add/remove), each shard's ART is edited in place one atomic store at a
// time, and a per-shard seqlock validates the whole read: the tree walk
// and the PM-side leaf and value reads. See DESIGN.md §11.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/cachesim"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// MaxKeyLen is the maximum key length in bytes (paper Section III.A.5:
// "The maximal key length supported by HART is 24 bytes").
const MaxKeyLen = 24

// MaxValueLen is the longest value a record holds. A value of up to
// MaxInlineLen bytes is stored in its leaf, a longer one in a 16-byte
// value object (the paper's value classes are 8 and 16 bytes, Section
// III.A.5; an 8-byte value fits the leaf).
const MaxValueLen = 16

// MaxInlineLen is the longest value a leaf holds in its own first word.
const MaxInlineLen = 8

// DefaultHashKeyLen is the paper's kh: "the hash key length is set to 2".
const DefaultHashKeyLen = 2

// Object classes within the EPallocator, fixed by the format: two leaf
// classes, chosen by key length when a record is inserted (leafClassFor),
// and the paper's 16-byte value class. A record never changes class. The
// paper's 8-byte value class has no counterpart: a value of up to
// MaxInlineLen bytes lives in its leaf, so every value object is a 16-byte
// one.
const (
	classLeaf24  epalloc.Class = 0
	classLeaf40  epalloc.Class = 1
	classValue16 epalloc.Class = 2
)

// Leaf node layout on PM (8-aligned). Paper Fig. 3 puts every value behind
// p_value "to support variable-size values"; here a value that fits the
// word p_value occupies is stored in it, so the common record is one PM
// object, not two.
//
//	+0  word 0 (8B), read by the shape byte. Shape 1-8: the value itself,
//	    zero-padded to the word. Shape 0: bits 0-55 value-object offset,
//	    bits 56-63 value length (9 and up) — pointer and length packed so
//	    that an out-of-line update stays a single failure-atomic store.
//	+8  keyLen (1B)
//	+9  shape (1B): the inline value's length, or 0 for a value object
//	+10 key, to the end of the slot
//
// Both leaf classes share the layout and differ only in where the slot
// ends: a 24-byte leaf holds a key of up to maxKey24 (14) bytes, a 40-byte
// one a key of up to MaxKeyLen. A record whose key fits the short slot
// takes 24 B of leaf instead of 40.
//
// keyLen, shape and the first hdrKeyBytes key bytes share the aligned word
// at +8 (the header word): recovery learns a record's shape from the load
// that gives it the key's length and routing prefix. Word 0 and the header
// word lie on different cache lines in one slot of eight, in either class
// (slots start at 8-byte offsets that cycle through a line's eight words),
// so the pair is never assumed to change atomically: the only operation
// that rewrites both on a live leaf runs under the update log
// (updateLogged).
const (
	leaf24Size  = 24
	leaf40Size  = 40
	lfWord0     = 0
	lfKeyLen    = 8
	lfShape     = 9
	lfKey       = 10
	maxKey24    = leaf24Size - lfKey
	hdrKeyBytes = 16 - lfKey
	ptrMask     = (uint64(1) << 56) - 1
	valLenShift = 56
)

// leafClassFor is the leaf class of a record whose key is n bytes long.
func leafClassFor(n int) epalloc.Class {
	if n <= maxKey24 {
		return classLeaf24
	}
	return classLeaf40
}

// leafKeyCap is the longest key a leaf of class c holds.
func leafKeyCap(c epalloc.Class) int {
	if c == classLeaf24 {
		return maxKey24
	}
	return MaxKeyLen
}

// packValue encodes a value pointer and its length into word 0.
func packValue(p pmem.Ptr, n int) uint64 {
	return uint64(p)&ptrMask | uint64(n)<<valLenShift
}

// unpackValue decodes an out-of-line word 0.
func unpackValue(w uint64) (pmem.Ptr, int) {
	return pmem.Ptr(w & ptrMask), int(w >> valLenShift)
}

// valueShape is the shape byte of a record whose value is n bytes long: n
// itself if the leaf holds the value, 0 if a value object does.
func valueShape(n int) int {
	if n > MaxInlineLen {
		return 0
	}
	return n
}

// inlineWord encodes a value of at most MaxInlineLen bytes as word 0.
func inlineWord(v []byte) uint64 {
	var w uint64
	for i, b := range v {
		w |= uint64(b) << (8 * uint(i))
	}
	return w
}

// hdrKeyLen and hdrShape decode a leaf's header word.
func hdrKeyLen(hdr uint64) int { return int(hdr & 0xff) }
func hdrShape(hdr uint64) int  { return int(hdr >> 8 & 0xff) }

// leafRef is what a DRAM ART leaf holds for its record: the PM leaf's
// offset in the low 56 bits (the width packValue assumes) and the record's
// shape byte, mirrored, in the top eight — so a lookup, an update and a
// delete know how to read word 0 without a PM load of their own. The shape
// changes only inside a shard write section that republishes the ref.
type leafRef uint64

func makeLeafRef(leaf pmem.Ptr, shape int) leafRef {
	return leafRef(packValue(leaf, shape))
}

func (r leafRef) ptr() pmem.Ptr { return pmem.Ptr(uint64(r) & ptrMask) }

// shape is the inline value's length, or 0 for a value object.
func (r leafRef) shape() int { return int(uint64(r) >> valLenShift) }

// Errors returned by HART operations.
var (
	// ErrKeyTooLong reports a key above MaxKeyLen bytes.
	ErrKeyTooLong = errors.New("hart: key exceeds maximum length")
	// ErrEmptyKey reports an empty key.
	ErrEmptyKey = errors.New("hart: empty key")
	// ErrValueTooLong reports a value above MaxValueLen bytes.
	ErrValueTooLong = errors.New("hart: value exceeds maximum length")
	// ErrEmptyValue reports an empty value.
	ErrEmptyValue = errors.New("hart: empty value")
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("hart: key not found")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("hart: index is closed")
)

// Options configures a HART instance.
type Options struct {
	// HashKeyLen is kh, the number of leading key bytes consumed by the
	// hash directory, 1 to hashdir.MaxKeyLen (3). Default
	// DefaultHashKeyLen.
	HashKeyLen int
	// ArenaSize is the simulated PM capacity in bytes. Default 64 MiB.
	ArenaSize int64
	// Latency selects the PM latency emulation (default: off).
	Latency latency.Config
	// CacheModel attaches a simulated CPU cache for read-latency
	// accounting (required for the paper's 300/300 and 600/300 read
	// penalties to be meaningful).
	CacheModel bool
	// Tracking enables crash simulation on the arena (tests).
	Tracking bool
	// RecoveryWorkers parallelises the Algorithm 7 rebuild across that
	// many goroutines, partitioned by allocator stripe, which holds all
	// of a shard's leaves (0 or 1 = the paper's serial recovery).
	RecoveryWorkers int
	// LazyRecovery defers the per-shard ART builds out of Open. Both
	// modes run one scan, which files every live leaf's header word and
	// ref in its stripe's log, and the same builds from those logs, so
	// they read the same PM words; they differ only in when the builds
	// run. An eager Open builds every shard before it publishes the
	// directory. A lazy one publishes shards that point at their run of
	// their stripe's log, and builds a shard's ART on its first locked
	// touch, or in DrainRecovery, which callers typically start in the
	// background right after Open. Open still loads every live leaf's
	// header word (and a value-object leaf's word 0) and keeps 16 B of
	// DRAM per live leaf until its stripe is built, so time to first read
	// grows with the store; what it defers is the grouping, every read of
	// a key's tail past the header word and every tree insert. Durable
	// state is untouched by the deferred builds, so a crash mid-drain
	// recovers exactly like a crash before it.
	LazyRecovery bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.HashKeyLen == 0 {
		o.HashKeyLen = DefaultHashKeyLen
	}
	if o.ArenaSize == 0 {
		o.ArenaSize = 64 << 20
	}
	return o
}

// artShard is one ART plus its lock (paper Fig. 1: "a lock on each ART"),
// in one 64-byte line.
//
// Readers never take mu on the fast path. They walk root, which writers
// edit in place under mu, and validate everything they read — the walk
// through DRAM, the leaf's word 0, a value object's words — against seq, a
// seqlock writers hold odd for the duration of their critical section. A
// walk beside a writer may meet the tree between two steps of one edit, or
// follow a NODE48 slot just reused for another edge; every word it loads
// is an atomic one, so it ends in a leaf or a miss, and seq discards that
// answer. The PM slots behind the leaves are reused by the allocator, so
// the same check covers a leaf the walk found just before its record was
// deleted and its slot rewritten.
type artShard struct {
	// seq is the shard's seqlock: incremented to odd at the start of
	// every mutating critical section and back to even at its end.
	seq atomic.Uint64
	// root is the shard's ART. Writers edit it in place under mu;
	// lock-free readers walk it beside them (see art.Root).
	root art.Root
	mu   sync.RWMutex
	// dead marks a shard removed from the directory after its ART
	// emptied; waiters must re-resolve through the directory. Guarded by
	// mu (the lock-free path never reads it — it revalidates through a
	// fresh directory lookup instead).
	dead bool
	// pending, when non-nil, names the shard's run of its stripe's log
	// from a lazy recovery (Options.LazyRecovery): the tree is empty and
	// must not be consulted until the first-touch build publishes the
	// real tree and clears pending — in that order, so pending == nil
	// implies the tree is complete. Transitions non-nil → nil exactly
	// once, under mu held exclusively. Optimistic readers treat a non-nil
	// pending as inconclusive and fall back to the locked path, which
	// builds.
	pending atomic.Pointer[pendingLeaves]
	// ops is the shard's cumulative count of records written by Put,
	// Update and PutBatch (stats only). Bumped while mu is held; an atomic
	// so Stats can read it without the lock.
	ops atomic.Uint64
}

// pendingLeaves is a lazily recovered shard's to-do: its hash key's run
// of its stripe's log, awaiting the first-touch ART build.
type pendingLeaves struct {
	log *stripeLog
	run int // the shard's rank among the stripe's hash keys
}

// newShard returns a live shard with an empty tree.
func newShard() *artShard { return &artShard{} }

// beginWrite opens a seqlock critical section. Caller holds s.mu.
func (s *artShard) beginWrite() { s.seq.Add(1) }

// endWrite closes it.
func (s *artShard) endWrite() { s.seq.Add(1) }

// HART is one Hash-assisted ART index.
type HART struct {
	opts  Options
	arena *pmem.Arena
	alloc *epalloc.Allocator

	// dir is the paper's hash table from each key's first kh bytes to
	// its shard. Readers use it with no lock; shard creation and removal
	// are each one Put or Delete on it under dirMu, which publishes one
	// page (hashdir). Recovery builds a table in private and swaps the
	// pointer under dirMu. Lock ordering: shard mutexes before dirMu —
	// removeShardIfEmpty publishes while holding its shard's lock, which
	// is safe because getShard never waits on a shard while holding dirMu.
	dirMu sync.Mutex
	dir   atomic.Pointer[hashdir.Table[*artShard]]

	size   atomic.Int64
	closed atomic.Bool

	// pendingShards counts shards still awaiting their lazy-recovery
	// first-touch build. Advisory (DrainRecovery rescans the directory);
	// lets PendingShards and the drain's fast path skip the scan.
	pendingShards atomic.Int64

	// recoveryStats records what the most recent recover() did; written
	// only during recovery (single-threaded), read via LastRecoveryStats.
	recoveryStats RecoveryStats

	// obs holds the instance's counters, gated histograms and event ring
	// (see metrics.go). Zero value is live; no initialisation needed.
	obs coreObs
}

// classSpecs is the allocator's class table, in class order.
var classSpecs = []epalloc.ClassSpec{
	classLeaf24:  {Name: "leaf24", ObjSize: leaf24Size},
	classLeaf40:  {Name: "leaf40", ObjSize: leaf40Size},
	classValue16: {Name: "value16", ObjSize: MaxValueLen},
}

// ArenaConfig translates the options into the PM medium's configuration,
// shared by New and the file-backed openers.
func (o Options) ArenaConfig() pmem.Config {
	o = o.withDefaults()
	var cache *cachesim.Cache
	if o.CacheModel {
		cache = cachesim.Default()
	}
	return pmem.Config{
		Size:     o.ArenaSize,
		Tracking: o.Tracking,
		Latency:  o.Latency,
		Cache:    cache,
	}
}

// New creates a HART over a fresh simulated PM arena.
func New(opts Options) (*HART, error) {
	arena, err := pmem.New(opts.ArenaConfig())
	if err != nil {
		return nil, err
	}
	return NewOnArena(arena, opts)
}

// NewOnArena formats a HART store onto a freshly initialised arena
// (typically a file-backed one from pmem.OpenFileArena). The format is
// crash-safe: the superblock body is persisted first, then the allocator
// state, and the superblock magic last — an arena torn anywhere inside
// the sequence attaches as not-formatted, never as a half-formed store.
func NewOnArena(arena *pmem.Arena, opts Options) (*HART, error) {
	opts = opts.withDefaults()
	if opts.HashKeyLen < 1 || opts.HashKeyLen > hashdir.MaxKeyLen {
		return nil, fmt.Errorf("hart: invalid HashKeyLen %d (1..%d)", opts.HashKeyLen, hashdir.MaxKeyLen)
	}
	h := &HART{opts: opts, arena: arena}
	h.dir.Store(hashdir.New[*artShard]())
	arena.SetPersistSite("format.superblock")
	writeSuperblockBody(arena, opts)
	var err error
	h.alloc, err = epalloc.New(arena, classSpecs)
	if err != nil {
		return nil, err
	}
	h.alloc.SetEventRing(&h.obs.events)
	arena.SetPersistSite("format.superblock")
	writeSuperblockMagic(arena)
	h.obs.events.Emit("open", "create", 0, 0)
	return h, nil
}

// Open attaches to an existing arena (a file-backed store, or one
// returned by Arena().Crash in tests) and runs recovery: it completes
// interrupted update logs and rebuilds the hash directory and all ART
// internal nodes from the persistent leaves (Algorithm 7).
//
// The store's superblock fixes its geometry: a HashKeyLen left zero adopts
// the persisted one, and one set to anything else, or a persisted
// object-class table other than this build's, fails with
// ErrGeometryMismatch before anything is written. The
// store is marked dirty before recovery completes and stays dirty until
// Close, so an image that skipped Close is identifiable as a crash image
// (RecoveryStats.WasClean).
func Open(arena *pmem.Arena, opts Options) (*HART, error) {
	sb, err := readSuperblock(arena)
	if err != nil {
		return nil, err
	}
	if opts, err = adoptGeometry(opts, sb); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	h := &HART{opts: opts, arena: arena}
	h.dir.Store(hashdir.New[*artShard]())
	alloc, err := epalloc.Attach(arena, classSpecs)
	if err != nil {
		return nil, err
	}
	h.alloc = alloc
	h.alloc.SetEventRing(&h.obs.events)
	h.setCleanFlag(false)
	if err := h.recover(); err != nil {
		return nil, err
	}
	h.recoveryStats.WasClean = sb.Clean
	h.recoveryStats.FormatVersion = sb.Version
	detail := "dirty"
	if sb.Clean {
		detail = "clean"
	}
	h.obs.events.Emit("open", detail, uint64(h.recoveryStats.LiveLeaves), uint64(h.recoveryStats.CompletedULogs))
	return h, nil
}

// Arena exposes the underlying simulated PM device (stats, crash tests).
func (h *HART) Arena() *pmem.Arena { return h.arena }

// Allocator exposes the EPallocator (stats, fsck).
func (h *HART) Allocator() *epalloc.Allocator { return h.alloc }

// Options returns the instance's configuration.
func (h *HART) Options() Options { return h.opts }

// Len returns the number of stored records.
func (h *HART) Len() int { return int(h.size.Load()) }

// Sync flushes the backing store (a no-op for the simulated arena; an
// msync/fsync for file-backed ones). Individual operations are already
// persistent when they return — Sync only matters for the file backend's
// machine-crash window and its portable write-back fallback.
func (h *HART) Sync() error {
	if h.closed.Load() {
		return ErrClosed
	}
	return h.arena.Sync()
}

// Close marks the index closed, records the clean shutdown in the
// superblock and releases the backing store. Idempotent; concurrent
// operations that lose the race fail with ErrClosed.
func (h *HART) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	// Deferred lazy-recovery builds touch only DRAM, but finishing them
	// leaves nothing half-installed for a concurrent straggler to trip on.
	h.DrainRecovery()
	h.setCleanFlag(true)
	return h.arena.Close()
}

// splitKey divides a key into its hash key and ART key (Algorithm 1
// line 1): the hash key is the key's first kh bytes and the ART key is
// the remainder. Keys shorter than kh hash on their full bytes and carry
// an empty ART key. Both are subslices of key.
func (h *HART) splitKey(key []byte) (hashKey, artKey []byte) {
	n := min(len(key), h.opts.HashKeyLen)
	return key[:n], key[n:]
}

// validate rejects out-of-range keys and values.
func (h *HART) validate(key, value []byte) error {
	if h.closed.Load() {
		return ErrClosed
	}
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d > %d", ErrKeyTooLong, len(key), MaxKeyLen)
	}
	if len(value) > MaxValueLen {
		return fmt.Errorf("%w: %d > %d", ErrValueTooLong, len(value), MaxValueLen)
	}
	return nil
}

// validateWrite additionally requires a non-empty value.
func (h *HART) validateWrite(key, value []byte) error {
	if err := h.validate(key, value); err != nil {
		return err
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	return nil
}

// getShard looks key's hash key up in the directory and returns its shard
// plus the hash key, optionally creating the shard (HashInsert, Algorithm
// 1 lines 3-5). Lookup is a lock-free read; creation looks again under
// dirMu, since another writer may have created the shard meanwhile, then
// publishes it with one Put. The returned shard is unlocked; a caller that
// locks it must re-check shard.dead and retry, since an emptied shard may
// have left the directory meanwhile.
func (h *HART) getShard(key []byte, create bool) (*artShard, []byte) {
	hk, _ := h.splitKey(key)
	s, ok := h.dir.Load().Get(hk)
	if ok || !create {
		return s, hk
	}
	h.dirMu.Lock()
	defer h.dirMu.Unlock()
	d := h.dir.Load()
	if s, ok = d.Get(hk); ok {
		return s, hk
	}
	s = newShard()
	d.Put(hk, s)
	h.obs.dirPublish.Add(1)
	return s, hk
}

// lockShardW locates and write-locks the shard owning key, handling the
// removed-shard race: a writer whose shard emptied and left the directory
// before it got the lock looks the hash key up again (creating a fresh
// shard if create is set). Returns the shard and the hash key (the
// caller's ART key is key[len(hashKey):]); the shard is nil when create
// is false and the directory has no entry for the hash key.
func (h *HART) lockShardW(key []byte, create bool) (*artShard, []byte) {
	for {
		s, hk := h.getShard(key, create)
		if s == nil {
			return nil, hk
		}
		s.mu.Lock()
		if !s.dead {
			if s.pending.Load() != nil {
				h.buildPending(s)
			}
			return s, hk
		}
		s.mu.Unlock()
	}
}

// lockShardR locates and read-locks the shard owning key. It is the
// slow path: optimistic readers that exhausted their retries, plus the
// stats/check paths that need a stable shard.
func (h *HART) lockShardR(key []byte) (*artShard, []byte) {
	for {
		s, hk := h.getShard(key, false)
		if s == nil {
			return nil, nil
		}
		if s.pending.Load() != nil {
			// Lazily recovered shard not yet built: upgrade to the write
			// lock for the first-touch build, then retry the read lock.
			h.drainShard(s)
			continue
		}
		s.mu.RLock()
		if !s.dead {
			return s, hk
		}
		s.mu.RUnlock()
	}
}

// removeShardIfEmpty frees an ART whose last record was deleted
// (Algorithm 5 lines 15-16). Caller holds s.mu and an open seqlock
// section; the Delete that publishes the entry's removal happens inside
// it, so an optimistic reader that found the shard before it either
// validates against the still-even seq of the (empty) dead shard or
// retries.
func (h *HART) removeShardIfEmpty(hashKey []byte, s *artShard) {
	if !s.root.Empty() {
		return
	}
	s.dead = true
	h.dirMu.Lock()
	defer h.dirMu.Unlock()
	if h.dir.Load().Delete(hashKey) {
		h.obs.dirPublish.Add(1)
	}
}

// NumARTs returns the number of live ARTs (the paper's maximum write
// concurrency).
func (h *HART) NumARTs() int {
	return h.dir.Load().Len()
}

// leafKey reads the full key stored in a leaf.
func (h *HART) leafKey(leaf pmem.Ptr) []byte {
	hdr := h.arena.Read8(leaf + lfKeyLen)
	key := make([]byte, min(hdrKeyLen(hdr), MaxKeyLen))
	h.keyFromHeader(leaf, hdr, key)
	return key
}

// keyFromHeader fills key with the leading len(key) bytes of the leaf's
// key: from the header word as far as it reaches, and by one more load
// only for the bytes past it.
func (h *HART) keyFromHeader(leaf pmem.Ptr, hdr uint64, key []byte) {
	for i := 0; i < len(key) && i < hdrKeyBytes; i++ {
		key[i] = byte(hdr >> (8 * uint(lfKey-lfKeyLen+i)))
	}
	if len(key) > hdrKeyBytes {
		h.arena.ReadAt(leaf+lfKey+hdrKeyBytes, key[hdrKeyBytes:])
	}
}

// readValue loads the value of the record behind ref, into dst if its
// capacity suffices. An inline value is one load of word 0; a value object
// costs that load and one of the object. With want false the value is
// located but not copied, which for an inline value needs no load at all.
// ok is false for a word 0 no committed leaf holds, which only a reader
// racing a writer can see (and then discards, see readOptimistic).
//
// All loads are atomic word loads: the slots behind a leaf a lock-free
// reader found beside a writer are reused, so its loads race the new
// owner's stores.
// Such a reader also passes stable, which reports whether ref and the word
// 0 just loaded still belong to one committed state: a word 0 that has
// since become an inline value's bytes must not be followed as a pointer —
// it can spell an address outside the arena. (A pointer that was good when
// loaded stays inside it, whatever becomes of its object.) A caller that
// excludes writers passes nil.
func (h *HART) readValue(ref leafRef, dst []byte, want bool, stable func() bool) (v []byte, ok bool) {
	n := ref.shape()
	if n != 0 && !want {
		return nil, true
	}
	w := h.arena.Read8(ref.ptr() + lfWord0)
	var vp pmem.Ptr
	if n == 0 {
		vp, n = unpackValue(w)
		if vp.IsNil() || n <= MaxInlineLen || n > MaxValueLen {
			return nil, false
		}
		if !want {
			return nil, true
		}
		if stable != nil && !stable() {
			return nil, false
		}
	}
	if cap(dst) >= n {
		v = dst[:n]
	} else {
		v = make([]byte, n)
	}
	if vp.IsNil() {
		for i := range v {
			v[i] = byte(w >> (8 * uint(i)))
		}
	} else {
		h.arena.ReadWords(vp, v)
	}
	return v, true
}
