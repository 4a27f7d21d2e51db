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
// add/remove), each shard's ART is an immutable tree republished by
// copy-on-write mutation, and a per-shard seqlock validates the PM-side
// leaf and value reads. See DESIGN.md §11.
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

// MaxValueLen is the largest value under the default class table. A
// value of up to MaxInlineLen bytes is stored in its leaf; a longer one in
// a value object of the smallest class that fits it. HART supports 8-byte
// and 16-byte value classes (Section III.A.5) and is "easily extended ...
// by implementing more singly linked-lists of value object memory chunks" —
// Options.ValueClasses realises exactly that, growing the limit with the
// largest configured class.
const MaxValueLen = 16

// MaxInlineLen is the longest value a leaf holds in its own first word.
const MaxInlineLen = 8

// DefaultHashKeyLen is the paper's kh: "the hash key length is set to 2".
const DefaultHashKeyLen = 2

// Object classes within the EPallocator. Leaves are class 0; value
// classes follow in ascending size order (classValue0 = 8 B and
// classValue0+1 = 16 B under the default table).
const (
	classLeaf   epalloc.Class = 0
	classValue0 epalloc.Class = 1
)

// Leaf node layout on PM (40 bytes, 8-aligned). Paper Fig. 3 puts every
// value behind p_value "to support variable-size values"; here a value
// that fits the word p_value occupies is stored in it, so the common
// record is one PM object, not two.
//
//	+0  word 0 (8B), read by the shape byte. Shape 1-8: the value itself,
//	    zero-padded to the word. Shape 0: bits 0-55 value-object offset,
//	    bits 56-63 value length (9 and up) — pointer and length packed so
//	    that an out-of-line update stays a single failure-atomic store.
//	+8  keyLen (1B)
//	+9  shape (1B): the inline value's length, or 0 for a value object
//	+10 key (MaxKeyLen bytes)
//
// keyLen, shape and the first hdrKeyBytes key bytes share the aligned word
// at +8 (the header word): recovery learns a record's shape from the load
// that gives it the key's length and routing prefix. Word 0 and the header
// word lie on different cache lines in one slot of eight, so the pair is
// never assumed to change atomically: the only operation that rewrites
// both on a live leaf runs under the update log (updateLogged).
const (
	leafSize    = 40
	lfWord0     = 0
	lfKeyLen    = 8
	lfShape     = 9
	lfKey       = 10
	hdrKeyBytes = 16 - lfKey
	ptrMask     = (uint64(1) << 56) - 1
	valLenShift = 56
)

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
	// ValueClasses lists the value-object sizes in bytes, each a multiple
	// of 8 in ascending order (default [8, 16], the paper's two classes).
	// A value of more than MaxInlineLen bytes lands in the smallest class
	// that fits it (a shorter one in its leaf, so a class of 8 bytes stays
	// empty and costs nothing); the largest class bounds the value length.
	ValueClasses []int64
	// RecoveryWorkers parallelises the Algorithm 7 rebuild across that
	// many goroutines, partitioned by hash key (0 or 1 = the paper's
	// serial recovery).
	RecoveryWorkers int
	// LazyRecovery defers the per-shard ART builds out of Open: recovery
	// completes after the update-log replay, leaf scan and consistency
	// sweeps, publishing a directory whose shards hold pending leaf lists
	// instead of trees. A shard's ART is built on its first locked touch,
	// or by DrainRecovery, which callers typically start in the background
	// right after Open. Time-to-first-read becomes nearly independent of
	// store size; durable state is untouched by the deferred builds, so a
	// crash mid-drain recovers exactly like a crash before it.
	LazyRecovery bool
	// UnloggedUpdates selects, for the update that replaces one value
	// object by another (both values longer than MaxInlineLen), the update
	// mechanism the paper *measured* (Section IV.B: "a pointer to that new
	// value is updated as the last step") instead of the full Algorithm 3
	// micro-log. It is four persists per update instead of the logged
	// protocol's six, but can strand one old value object if a crash lands
	// between the pointer swing and the old value's bit reset; the
	// recovery orphan sweep reclaims such strays on the next restart, so
	// the leak is bounded by one recovery period (the baselines leak the
	// same window unboundedly). Default false: Algorithm 3, immediately
	// leak-free. No other update consults it: a value the leaf holds is
	// replaced by one of its own length in a single failure-atomic store,
	// and an update that changes a record's shape is always logged.
	UnloggedUpdates bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.HashKeyLen == 0 {
		o.HashKeyLen = DefaultHashKeyLen
	}
	if o.ArenaSize == 0 {
		o.ArenaSize = 64 << 20
	}
	if len(o.ValueClasses) == 0 {
		o.ValueClasses = []int64{8, 16}
	}
	return o
}

// validateClasses rejects malformed value-class tables.
func validateClasses(classes []int64) error {
	for i, c := range classes {
		if c <= 0 || c%8 != 0 {
			return fmt.Errorf("hart: value class %d bytes is not a positive multiple of 8", c)
		}
		if i > 0 && c <= classes[i-1] {
			return fmt.Errorf("hart: value classes must be strictly ascending (%d after %d)", c, classes[i-1])
		}
	}
	return nil
}

// artShard is one ART plus its lock (paper Fig. 1: "a lock on each ART").
//
// Readers never take mu on the fast path. They load tree — an immutable
// snapshot republished by copy-on-write mutation — and validate the
// PM-side reads (the leaf's word 0, a value object's words) against seq, a
// seqlock writers hold odd for the duration of their critical section.
// The DRAM tree walk needs no validation at all; seq exists because the
// PM slots behind the tree's leaf pointers are reused by the allocator,
// so a stale tree snapshot can point a reader at a slot mid-rewrite.
type artShard struct {
	// seq is the shard's seqlock: incremented to odd at the start of
	// every mutating critical section and back to even at its end.
	seq atomic.Uint64
	// tree is the shard's published ART. Writers (under mu) replace it
	// via art.CowInsert/CowDelete; every node reachable from a published
	// tree is immutable thereafter.
	tree atomic.Pointer[art.Tree]
	mu   sync.RWMutex
	// dead marks a shard removed from the directory after its ART
	// emptied; waiters must re-resolve through the directory. Guarded by
	// mu (the lock-free path never reads it — it revalidates through a
	// fresh directory lookup instead).
	dead bool
	// pending, when non-nil, holds the shard's leaf list from a lazy
	// recovery (Options.LazyRecovery): the published tree is empty and
	// must not be consulted until the first-touch build stores the real
	// tree and clears pending — in that order, so pending == nil implies
	// the tree is complete. Transitions non-nil → nil exactly once, under
	// mu held exclusively. Optimistic readers treat a non-nil pending as
	// inconclusive and fall back to the locked path, which builds.
	pending atomic.Pointer[pendingLeaves]
	// ops is the shard's cumulative count of records written by Put,
	// Update and PutBatch (stats only). Bumped while mu is held; an atomic
	// so Stats can read it without the lock.
	ops atomic.Uint64
}

// pendingLeaves is a lazily recovered shard's to-do list: the live leaves
// the recovery scan assigned to it, awaiting the first-touch ART build.
type pendingLeaves struct {
	leaves []leafRef
}

// newShard returns a live shard with an empty published tree.
func newShard() *artShard {
	s := &artShard{}
	s.tree.Store(art.New())
	return s
}

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

// classSpecs returns the allocator class table, binding the Algorithm 2
// lines 12-16 leaf-reuse repair to h. One value class per configured
// size, exactly the paper's "more singly linked-lists of value object
// memory chunks" extension.
func (h *HART) classSpecs() []epalloc.ClassSpec {
	specs := make([]epalloc.ClassSpec, 0, 1+len(h.opts.ValueClasses))
	specs = append(specs, epalloc.ClassSpec{Name: "leaf", ObjSize: leafSize, OnReuse: h.onLeafReuse})
	for _, size := range h.opts.ValueClasses {
		specs = append(specs, epalloc.ClassSpec{Name: fmt.Sprintf("value%d", size), ObjSize: size})
	}
	return specs
}

// maxValueLen is the largest storable value under the class table.
func (h *HART) maxValueLen() int {
	return int(h.opts.ValueClasses[len(h.opts.ValueClasses)-1])
}

// valueClass returns the smallest class fitting an n-byte value.
func (h *HART) valueClass(n int) epalloc.Class {
	for i, size := range h.opts.ValueClasses {
		if int64(n) <= size {
			return classValue0 + epalloc.Class(i)
		}
	}
	// validate() bounds n by maxValueLen, so this is unreachable.
	panic(fmt.Sprintf("hart: no value class for %d bytes", n))
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
	if err := validateClasses(opts.ValueClasses); err != nil {
		return nil, err
	}
	h := &HART{opts: opts, arena: arena}
	h.dir.Store(hashdir.New[*artShard]())
	arena.SetPersistSite("format.superblock")
	if err := writeSuperblockBody(arena, opts); err != nil {
		return nil, err
	}
	var err error
	h.alloc, err = epalloc.New(arena, h.classSpecs())
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
// Geometry (HashKeyLen, ValueClasses) is read from the store's
// superblock: options left zero adopt the persisted values, options set
// to anything else must match them (ErrGeometryMismatch otherwise). The
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
	if err := validateClasses(opts.ValueClasses); err != nil {
		return nil, err
	}
	h := &HART{opts: opts, arena: arena}
	h.dir.Store(hashdir.New[*artShard]())
	alloc, err := epalloc.Attach(arena, h.classSpecs())
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
	if value != nil {
		if maxLen := h.maxValueLen(); len(value) > maxLen {
			return fmt.Errorf("%w: %d > %d", ErrValueTooLong, len(value), maxLen)
		}
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
	if !s.tree.Load().Empty() {
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
// All loads are atomic word loads: the slots behind a stale tree snapshot
// are reused, so a lock-free reader's loads race the new owner's stores.
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
		if vp.IsNil() || n <= MaxInlineLen || n > h.maxValueLen() {
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

// reclaimStale is the one place a dead leaf slot's word 0 is followed. The
// word is never trusted: since values live in it, a torn insert or an
// unscrubbed delete leaves user bytes there, beside a shape byte that may
// be a previous occupant's, and BitIsSet/ResetBit accept any slot base of
// any class. So w is followed only if, read as a packed pointer, it names
// a slot base of a value class whose bit is set and which no live leaf
// references — then it is what Algorithm 2 lines 12-16 look for, a value
// committed by an insert that never committed its leaf (or left behind by
// a delete between its two bit resets), and is reclaimed. The caller
// zeroes the word whatever this finds.
func (h *HART) reclaimStale(w uint64, referenced func(pmem.Ptr) bool) error {
	vp, _ := unpackValue(w)
	if c, err := h.alloc.ClassOf(vp); err != nil || c < classValue0 {
		return nil
	}
	if set, err := h.alloc.BitIsSet(vp); err != nil || !set || referenced(vp) {
		return nil
	}
	if err := h.alloc.ResetBit(vp); err != nil {
		return err
	}
	return h.alloc.RecycleIfPresent(vp)
}

// onLeafReuse is the Algorithm 2 lines 12-16 repair hook, run on a leaf
// slot as it is handed out. An allocatable leaf slot durably has word 0
// == 0 — the delete scrub, the failure-path scrubs and recovery's sweep
// of every dead slot keep that invariant (DESIGN.md §7 item 3) — so the
// load below is all this does; the repair is kept for the slot that
// escapes the invariant, where it can only run against a value object
// with no way to tell whether a live leaf references it.
func (h *HART) onLeafReuse(leaf pmem.Ptr) {
	w := h.arena.Read8(leaf + lfWord0)
	if w == 0 {
		return
	}
	_ = h.reclaimStale(w, func(pmem.Ptr) bool { return false })
	h.scrubLeaf(leaf)
}
