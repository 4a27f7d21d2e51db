package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// recover rebuilds the volatile half of HART after a restart or crash
// (Algorithm 7) and completes interrupted updates recorded in the update
// logs (Algorithm 3's failure-recovery discussion).
//
// Recovery is much faster than rebuilding from scratch because leaves and
// values are already on PM: only hash-directory entries and ART internal
// nodes are created, and no PM write happens for the common case.
//
// The path has three phases (see DESIGN.md §13):
//
//  1. Update-log replay — serial; must precede everything so the leaves'
//     first words and shape bytes are final.
//  2. Leaf scan — the allocator's stripes walked by up to RecoveryWorkers
//     goroutines. Every write allocates its leaf on its shard's stripe
//     (epalloc.StripeFor of the hash key), so the goroutine walking a
//     stripe meets every leaf of that stripe's shards: it reads each live
//     leaf's key from PM once, into a stack buffer, and inserts the leaf
//     straight into its shard's private batch-built tree (or, under
//     Options.LazyRecovery, appends it to the shard's pending list). It
//     also collects the live value references per stripe. Dead slots are
//     skipped unread. No shared state is touched.
//  3. Orphan sweep — the value-chunk walk fans out per stripe, but every
//     release it decides on is applied by this goroutine in stripe order:
//     recovery's persist sequence stays deterministic at any worker count
//     (the property the differential crash checker replays against), and
//     an injected crash always surfaces on the caller.
//
// Then the build is finished: leaves found on a stripe other than their
// shard's (no writer leaves one, but an image may hold one) are inserted
// into their shards, and the directory and the size counter are published
// once, so a Rebuild on a live store never exposes a partially rebuilt
// index.
func (h *HART) recover() error {
	var stats RecoveryStats
	workers := h.opts.RecoveryWorkers
	if workers < 1 {
		workers = 1
	}
	stats.Workers = workers
	stats.Lazy = h.opts.LazyRecovery

	// Phase 1: update-log replay.
	t := time.Now()
	h.arena.SetPersistSite("recover.ulog")
	for _, ul := range h.alloc.PendingUpdateLogs() {
		if err := h.recoverUpdate(ul); err != nil {
			return err
		}
		h.alloc.ResetUpdateLogAt(ul.Index)
		h.obs.events.Emit("recover.ulog_replay", "", uint64(ul.Index), uint64(ul.PLeaf))
		stats.CompletedULogs++
	}
	stats.ULogNs = time.Since(t).Nanoseconds()
	h.obs.events.Emit("recover.phase", "ulog", uint64(stats.CompletedULogs), uint64(stats.ULogNs))

	// Phase 2: parallel leaf scan and shard build (Algorithm 7 lines 2-6).
	t = time.Now()
	scan, err := h.scanLeaves(workers)
	if err != nil {
		return err
	}
	stats.LiveLeaves = scan.live
	stats.ScanNs = time.Since(t).Nanoseconds()
	h.obs.events.Emit("recover.phase", "scan", uint64(stats.LiveLeaves), uint64(stats.ScanNs))

	// Phase 3: orphan sweep, PM writes serial on this goroutine.
	t = time.Now()
	err = h.sweepOrphans(scan, workers, &stats)
	stats.SweepNs = time.Since(t).Nanoseconds()
	h.obs.events.Emit("recover.phase", "sweep", uint64(stats.OrphanValues), uint64(stats.SweepNs))
	if err != nil {
		return err
	}

	// Strays, then publish: one atomic store each for the directory and
	// the size, so concurrent readers see the old index or the complete
	// new one.
	t = time.Now()
	keys, shards := scan.finish(h)
	h.dirMu.Lock()
	h.dir.Store(hashdir.NewFromSorted(keys, shards))
	h.dirMu.Unlock()
	h.obs.dirPublish.Add(1)
	h.size.Store(int64(scan.live))
	if h.opts.LazyRecovery {
		stats.PendingShards = len(keys)
	}
	h.pendingShards.Store(int64(stats.PendingShards))
	stats.BuildNs = time.Since(t).Nanoseconds()
	h.obs.events.Emit("recover.phase", "build", uint64(stats.LiveLeaves), uint64(stats.BuildNs))
	h.recoveryStats = stats
	return nil
}

// classifyLeaf is recovery's one look at a live leaf, the same in every
// mode: it reads the header word — shape, key length and the first
// hdrKeyBytes key bytes in one load — and word 0 only when the shape says
// it names a value object, returned as vp (Nil otherwise).
func (h *HART) classifyLeaf(leaf pmem.Ptr) (hdr uint64, vp pmem.Ptr) {
	hdr = h.arena.Read8(leaf + lfKeyLen)
	if hdrShape(hdr) == 0 {
		vp, _ = unpackValue(h.arena.Read8(leaf + lfWord0))
	}
	return hdr, vp
}

// shardBuild is one shard under construction: eagerly, a batch inserting
// into the shard's private tree; under LazyRecovery, its pending list.
type shardBuild struct {
	s     *artShard
	batch *art.Batch
	pend  []leafRef
}

// add files one live leaf under its ART key (empty under LazyRecovery,
// whose scan reads only the hash key).
func (sb *shardBuild) add(ref leafRef, artKey []byte) {
	if sb.batch == nil {
		sb.pend = append(sb.pend, ref)
		return
	}
	sb.batch.Insert(artKey, uint64(ref))
}

// strayLeaf is a live leaf found on a stripe other than its shard's,
// held with a copy of its key until the walk is over.
type strayLeaf struct {
	ref leafRef
	key []byte
}

// stripeScan is one stripe's share of the leaf scan. Each stripe is
// walked by exactly one goroutine, and a shard's builder lives in the
// stripe of its hash key, so none of this needs locking; the coordinator
// reads the stripes in index order, which keeps stray insertion
// deterministic regardless of worker count.
type stripeScan struct {
	shards map[string]*shardBuild
	strays []strayLeaf
	vals   []pmem.Ptr
	live   int
	err    error
}

// builder returns the stripe's builder for hash key hk, creating it.
func (ss *stripeScan) builder(hk []byte, lazy bool) *shardBuild {
	if sb := ss.shards[string(hk)]; sb != nil {
		return sb
	}
	sb := &shardBuild{s: newShard()}
	if !lazy {
		sb.batch = art.New().BeginBatch()
	}
	ss.shards[string(hk)] = sb
	return sb
}

// leafScan is the merged result of the scan phase.
type leafScan struct {
	stripes [epalloc.NumStripes]stripeScan
	valSet  []pmem.Ptr // sorted live value references
	live    int
	lazy    bool
}

// leafClasses are the classes recovery's leaf scan walks, in walk order.
var leafClasses = [...]epalloc.Class{classLeaf24, classLeaf40}

// scanLeaves walks every leaf chunk with up to `workers` goroutines (one
// per allocator stripe), filing each live leaf with its shard's builder
// and collecting per-stripe value references; a dead slot is skipped
// without a load. The two leaf classes are walked one after the other into
// the same per-stripe state: a shard's leaves of both classes sit on its
// stripe, so one builder takes them all, and each stripe's strays keep
// walk order. Each live leaf's key is read exactly once; under
// LazyRecovery only its hash key, the leading kh bytes, which up to
// hdrKeyBytes come with the header word classifyLeaf loaded anyway. A live leaf whose header claims a key
// its slot cannot hold is refused before any key byte is read.
func (h *HART) scanLeaves(workers int) (*leafScan, error) {
	sc := &leafScan{lazy: h.opts.LazyRecovery}
	for st := range sc.stripes {
		sc.stripes[st].shards = make(map[string]*shardBuild)
	}
	for _, c := range leafClasses {
		keyCap := leafKeyCap(c)
		err := h.alloc.IterateObjectsParallel(c, workers, func(st int, leaf pmem.Ptr, used bool) bool {
			if !used {
				return true
			}
			ss := &sc.stripes[st]
			hdr, vp := h.classifyLeaf(leaf)
			if !vp.IsNil() {
				ss.vals = append(ss.vals, vp)
			}
			n := hdrKeyLen(hdr)
			if n == 0 || n > keyCap {
				ss.err = fmt.Errorf("hart: recovery found live leaf %d with key length %d; its %d-byte slot holds keys of 1 to %d bytes",
					leaf, n, classSizes[c], keyCap)
				return false
			}
			if sc.lazy {
				n = min(n, h.opts.HashKeyLen)
			}
			var buf [MaxKeyLen]byte
			key := buf[:n]
			h.keyFromHeader(leaf, hdr, key)
			hk, artKey := h.splitKey(key)
			ref := makeLeafRef(leaf, hdrShape(hdr))
			ss.live++
			sb := ss.shards[string(hk)]
			if sb == nil {
				if epalloc.StripeFor(hk) != st {
					ss.strays = append(ss.strays, strayLeaf{ref: ref, key: slices.Clone(key)})
					return true
				}
				sb = ss.builder(hk, sc.lazy)
			}
			sb.add(ref, artKey)
			return true
		})
		if err != nil {
			return nil, err
		}
		for st := range sc.stripes {
			if err := sc.stripes[st].err; err != nil {
				return nil, err
			}
		}
	}
	nvals := 0
	for st := range sc.stripes {
		ss := &sc.stripes[st]
		nvals += len(ss.vals)
		sc.live += ss.live
	}
	sc.valSet = make([]pmem.Ptr, 0, nvals)
	for st := range sc.stripes {
		sc.valSet = append(sc.valSet, sc.stripes[st].vals...)
	}
	slices.Sort(sc.valSet)
	return sc, nil
}

// finish files the strays with their shards' builders, in stripe order,
// then completes every builder — publishing its tree, or storing its
// pending list — and returns the shards with their hash keys.
func (sc *leafScan) finish(h *HART) (keys []string, shards []*artShard) {
	for st := range sc.stripes {
		for _, sl := range sc.stripes[st].strays {
			hk, artKey := h.splitKey(sl.key)
			sc.stripes[epalloc.StripeFor(hk)].builder(hk, sc.lazy).add(sl.ref, artKey)
		}
	}
	for st := range sc.stripes {
		for hk, sb := range sc.stripes[st].shards {
			if sc.lazy {
				sb.s.pending.Store(&pendingLeaves{leaves: sb.pend})
			} else {
				sb.batch.Publish(&sb.s.root)
			}
			keys = append(keys, hk)
			shards = append(shards, sb.s)
		}
	}
	return keys, shards
}

// ptrSetHas reports membership in a sorted pointer slice.
func ptrSetHas(set []pmem.Ptr, p pmem.Ptr) bool {
	_, ok := slices.BinarySearch(set, p)
	return ok
}

// sweepOrphans is recovery's one PM repair, a mark-and-sweep: any
// committed value object that no live leaf references is unreachable
// forever, and is released. An out-of-line insert that crashed between its
// value bit and its leaf bit leaves one, and so does a delete that crashed
// between its leaf bit and its value bit; so do an update whose release of
// the old value failed after its commit point and a delete whose value
// release failed. No dead leaf slot is read: its word 0 may be a stale
// pointer or an inline value's bytes, which can spell any address, and the
// mark set of live references already decides every case. The value-chunk
// walk fans out per stripe; the releases land here, in stripe order. A
// crash outside those windows leaves nothing to find; either way, a
// recovered HART starts leak-free.
func (h *HART) sweepOrphans(sc *leafScan, workers int, stats *RecoveryStats) error {
	h.arena.SetPersistSite("recover.orphan-sweep")
	var orphans [epalloc.NumStripes][]pmem.Ptr
	if err := h.alloc.IterateObjectsParallel(classValue16, workers, func(st int, vp pmem.Ptr, used bool) bool {
		if used && !ptrSetHas(sc.valSet, vp) {
			orphans[st] = append(orphans[st], vp)
		}
		return true
	}); err != nil {
		return err
	}
	for st := range orphans {
		for _, vp := range orphans[st] {
			if err := h.alloc.Release(vp); err != nil {
				return err
			}
			stats.OrphanValues++
		}
	}
	return nil
}

// buildPending builds a lazily recovered shard's ART from its pending
// leaf list: read each leaf's full key (the deferred read the scan phase
// skipped) and batch-insert it into a fresh tree; ART shape does not
// depend on insertion order. The caller holds s.mu exclusively. Ordering
// matters: the built tree is stored before pending is cleared, so any
// goroutine observing pending == nil is guaranteed to observe the
// complete tree.
func (h *HART) buildPending(s *artShard) {
	pp := s.pending.Load()
	if pp == nil {
		return
	}
	b := art.New().BeginBatch()
	var buf [MaxKeyLen]byte
	for _, ref := range pp.leaves {
		hdr := h.arena.Read8(ref.ptr() + lfKeyLen)
		key := buf[:hdrKeyLen(hdr)] // the scan refused any length its slot cannot hold
		h.keyFromHeader(ref.ptr(), hdr, key)
		_, artKey := h.splitKey(key)
		b.Insert(artKey, uint64(ref))
	}
	b.Publish(&s.root)
	s.pending.Store(nil)
	h.pendingShards.Add(-1)
}

// drainShard builds one shard if it is still pending.
func (h *HART) drainShard(s *artShard) {
	if s.pending.Load() == nil {
		return
	}
	s.mu.Lock()
	if !s.dead {
		h.buildPending(s)
	}
	s.mu.Unlock()
}

// DrainRecovery completes a lazy recovery (Options.LazyRecovery) by
// building every still-pending shard's ART, fanning the builds across
// Options.RecoveryWorkers goroutines. It is idempotent, cheap when
// nothing is pending, purely volatile (no PM write — the durable state
// is identical before and after, so a crash mid-drain recovers exactly
// like a crash before it), and safe to run concurrently with readers and
// writers: each build holds its shard's write lock. Open does not wait
// for it; callers wanting eager behaviour in the background can run
// `go h.DrainRecovery()` right after Open.
func (h *HART) DrainRecovery() {
	if h.pendingShards.Load() <= 0 {
		return
	}
	var pend []*artShard
	h.dir.Load().Range(func(_ []byte, s *artShard) bool {
		if s.pending.Load() != nil {
			pend = append(pend, s)
		}
		return true
	})
	workers := h.opts.RecoveryWorkers
	if workers > len(pend) {
		workers = len(pend)
	}
	if workers <= 1 {
		for _, s := range pend {
			h.drainShard(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(pend)) {
					return
				}
				h.drainShard(pend[i])
			}
		}()
	}
	wg.Wait()
}

// PendingShards reports how many lazily recovered shards still await
// their first-touch ART build: non-zero only between a LazyRecovery Open
// and the completion of DrainRecovery (or of organic traffic touching
// every shard); always zero after an eager recovery.
func (h *HART) PendingShards() int { return int(h.pendingShards.Load()) }

// RecoveryStats is an inventory of what the last recovery pass did, for
// hartfsck reporting and recovery tests.
type RecoveryStats struct {
	// CompletedULogs counts armed update logs found and resolved.
	CompletedULogs int
	// LiveLeaves counts committed leaves rebuilt into the index.
	LiveLeaves int
	// OrphanValues counts committed but unreachable value objects
	// reclaimed by the mark-and-sweep pass.
	OrphanValues int
	// Workers is the worker count the pass ran with; Lazy reports whether
	// the ART builds were deferred, and PendingShards how many shards
	// were left pending at Open (0 for an eager recovery).
	Workers       int
	Lazy          bool
	PendingShards int
	// WasClean reports whether the superblock carried the clean-shutdown
	// flag when Open attached — true for an image produced by Close, false
	// for a crash image (or a pre-Open store). Always false after New.
	WasClean bool
	// FormatVersion is the version word Open read from the superblock (0
	// after New or Rebuild, which read none).
	FormatVersion int
	// Per-phase wall times, which do not overlap. ULogNs is the
	// update-log replay; ScanNs the leaf scan, which builds the shards'
	// trees (or pending lists) as it walks; SweepNs the orphan
	// sweep; BuildNs what is left of the build after it: inserting
	// leaves found off their shard's stripe, and publishing the directory.
	ULogNs  int64
	ScanNs  int64
	BuildNs int64
	SweepNs int64
}

// LastRecoveryStats reports what the most recent recovery (New, Open or
// Rebuild) found and repaired.
func (h *HART) LastRecoveryStats() RecoveryStats { return h.recoveryStats }

// recoverUpdate completes one interrupted logged update (updateLogged).
// The paper's case analysis has three cases; ULog.Commit makes the record
// durable in one persist with the arming PLeaf stored last, so a running
// update leaves either no armed log or the complete record, never the
// paper's cases 1 and 2.
func (h *HART) recoverUpdate(ul epalloc.UpdateLogState) error {
	// Armed but not complete is a torn Reclaim (it clears the meta word
	// first) of an update that had already completed, or given up on an
	// error: nothing to redo, and the caller's reset of the log finishes
	// the Reclaim.
	if !ul.Complete {
		return nil
	}
	// Case 3: the whole record is valid — the crash happened between line 7
	// and line 11; resume from line 7. Every step is idempotent, the swing
	// included: it rewrites word 0 and the shape byte from the record
	// whatever part of the pair the crash had made durable.
	var newV pmem.Ptr
	if ul.Shape == 0 {
		newV, _ = unpackValue(ul.NewWord)
		if err := h.alloc.SetBit(newV); err != nil { // line 7
			return err
		}
	}
	h.reshape(ul.PLeaf, ul.NewWord, int(ul.Shape)) // line 8
	if ul.POldV.IsNil() || ul.POldV == newV {
		return nil
	}
	// Lines 9-10, once: a set bit means the old value is still a used
	// object of a chunk on its list. A clear one means a crashed run got
	// past line 9 — and its Release may have recycled the chunk, which
	// a second clear would offer for allocation from the free list.
	if set, err := h.alloc.BitIsSet(ul.POldV); err != nil || !set {
		return err
	}
	return h.alloc.Release(ul.POldV)
}

// Rebuild discards the volatile index and reruns recovery in place; it
// exists so the recovery experiment (Fig. 10c) can measure recovery time
// without re-creating the arena. The replacement index is built privately
// and published with one atomic store, so a reader concurrent with a
// Rebuild observes either the old or the new complete directory — never
// an empty or partially filled intermediate.
func (h *HART) Rebuild() error {
	return h.recover()
}
