package core

import (
	"bytes"
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
// The path is a pipeline of four phases (see DESIGN.md §13):
//
//  1. Update-log replay — serial; must precede everything so the leaves'
//     first words and shape bytes are final.
//  2. Leaf scan — the allocator's stripes walked by up to RecoveryWorkers
//     goroutines, each collecting its stripes' live leaves (with their
//     shapes and keys, read from PM exactly once), live value references
//     and stale dead slots into per-stripe sets; no shared map is touched.
//  3. Bulk rebuild — workers partitioned by hash key sort their leaves
//     and build whole ARTs with a one-clone-per-node batch insert into a
//     private, unpublished directory (or, under Options.LazyRecovery,
//     merely record per-shard pending leaf lists). Purely volatile, so it
//     overlaps phase 4.
//  4. Consistency sweeps — the stale-reference and orphan-value scans fan
//     out per stripe, but every PM write they decide on is applied by
//     this goroutine in stripe order: recovery's persist sequence stays
//     deterministic at any worker count (the property the differential
//     crash checker replays against), and an injected crash always
//     surfaces on the caller.
//
// The directory and the size counter are published once at the end, so a
// Rebuild on a live store never exposes a partially rebuilt index.
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

	// Phase 2: parallel leaf scan (Algorithm 7 lines 2-6).
	t = time.Now()
	scan, err := h.scanLeaves(workers)
	if err != nil {
		return err
	}
	stats.LiveLeaves = scan.live
	stats.ScanNs = time.Since(t).Nanoseconds()
	h.obs.events.Emit("recover.phase", "scan", uint64(stats.LiveLeaves), uint64(stats.ScanNs))

	// Phase 3: launch the builders; they run concurrently with phase 4's
	// sweeps (volatile builds and PM sweeps touch disjoint state).
	t = time.Now()
	parts := make([][]builtShard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = h.buildPartition(scan.partition(w))
		}(w)
	}

	// Phase 4: consistency sweeps, PM writes serial on this goroutine.
	ts := time.Now()
	sweepErr := h.sweepStaleAndOrphans(scan, workers, &stats)
	stats.SweepNs = time.Since(ts).Nanoseconds()
	wg.Wait()
	stats.BuildNs = time.Since(t).Nanoseconds() // includes the sweep overlap
	h.obs.events.Emit("recover.phase", "sweep", uint64(stats.StaleSlotsZeroed+stats.OrphanValues), uint64(stats.SweepNs))
	h.obs.events.Emit("recover.phase", "build", uint64(stats.LiveLeaves), uint64(stats.BuildNs))
	if sweepErr != nil {
		return sweepErr
	}

	// Publish: one atomic store each for the directory and the size, so
	// concurrent readers see the old index or the complete new one.
	var keys []string
	var shards []*artShard
	for _, p := range parts {
		for _, bs := range p {
			keys = append(keys, bs.hk)
			shards = append(shards, bs.s)
		}
	}
	h.dirMu.Lock()
	h.dir.Store(hashdir.NewFromSorted(keys, shards))
	h.dirMu.Unlock()
	h.obs.dirPublish.Add(1)
	h.size.Store(int64(scan.live))
	if h.opts.LazyRecovery {
		stats.PendingShards = len(keys)
	}
	h.pendingShards.Store(int64(stats.PendingShards))
	h.recoveryStats = stats
	return nil
}

// recLeaf is one live leaf carried through recovery's partition: shape
// and key are read from PM once, during the scan, and reused for
// partitioning, sorting and tree building. Under LazyRecovery only the
// hash key is read (and stored here); the full key read is deferred to
// the shard's first-touch build.
type recLeaf struct {
	ref leafRef
	key []byte
}

// deadSlot is an unused leaf slot whose word 0 is not zero and needs
// scrubbing. The word is kept raw: what it may be trusted to mean is
// reclaimStale's decision.
type deadSlot struct {
	leaf  pmem.Ptr
	word0 uint64
}

// classifyLeaf is recovery's one look at a leaf slot, the same in every
// mode. Of a dead slot it reads word 0, which is all a dead slot has to
// say. Of a live leaf it reads the header word — shape, key length and the
// first hdrKeyBytes key bytes in one load — and word 0 only when the shape
// says it names a value object, returned as vp (Nil otherwise).
func (h *HART) classifyLeaf(leaf pmem.Ptr, used bool) (hdr, word0 uint64, vp pmem.Ptr) {
	if !used {
		return 0, h.arena.Read8(leaf + lfWord0), pmem.Nil
	}
	hdr = h.arena.Read8(leaf + lfKeyLen)
	if hdrShape(hdr) == 0 {
		word0 = h.arena.Read8(leaf + lfWord0)
		vp, _ = unpackValue(word0)
	}
	return hdr, word0, vp
}

// byteArena hands out small byte slices carved from large blocks, so a
// million leaf keys cost a handful of allocations instead of one each.
type byteArena struct{ buf []byte }

func (a *byteArena) alloc(n int) []byte {
	if len(a.buf)+n > cap(a.buf) {
		block := 1 << 16
		if n > block {
			block = n
		}
		a.buf = make([]byte, 0, block)
	}
	b := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return b
}

// stripeScan is one stripe's share of the leaf scan. Each stripe is
// walked by exactly one goroutine, so none of this needs locking; the
// coordinator merges the stripes in index order, which keeps every
// derived sequence (dead-slot sweep order, partition contents)
// deterministic regardless of worker count.
type stripeScan struct {
	keys    byteArena
	dead    []deadSlot
	vals    []pmem.Ptr
	buckets [][]recLeaf // indexed by build worker
	err     error
}

// leafScan is the merged result of the scan phase.
type leafScan struct {
	stripes [epalloc.NumStripes]stripeScan
	valSet  []pmem.Ptr // sorted live value references
	live    int
}

// partition returns build worker w's leaves: the concatenation, in stripe
// order, of every stripe's bucket for w. Leaves of one hash key always
// share a partition (the bucket index is a hash of the hash key), so
// build workers never touch the same shard.
func (sc *leafScan) partition(w int) []recLeaf {
	n := 0
	for st := range sc.stripes {
		n += len(sc.stripes[st].buckets[w])
	}
	out := make([]recLeaf, 0, n)
	for st := range sc.stripes {
		out = append(out, sc.stripes[st].buckets[w]...)
	}
	return out
}

// scanLeaves walks every leaf chunk with up to `workers` goroutines (one
// per allocator stripe), collecting per-stripe live/dead sets and
// partitioning the live leaves by hash key for the build phase. Each live
// leaf's key is read exactly once; under LazyRecovery only its hash key,
// the leading kh bytes, which up to hdrKeyBytes come with the header word
// classifyLeaf loaded anyway.
func (h *HART) scanLeaves(workers int) (*leafScan, error) {
	lazy := h.opts.LazyRecovery
	sc := &leafScan{}
	for st := range sc.stripes {
		sc.stripes[st].buckets = make([][]recLeaf, workers)
	}
	err := h.alloc.IterateObjectsParallel(classLeaf, workers, func(st int, leaf pmem.Ptr, used bool) bool {
		ss := &sc.stripes[st]
		hdr, word0, vp := h.classifyLeaf(leaf, used)
		if !used {
			if word0 != 0 {
				ss.dead = append(ss.dead, deadSlot{leaf: leaf, word0: word0})
			}
			return true
		}
		if !vp.IsNil() {
			ss.vals = append(ss.vals, vp)
		}
		n := min(hdrKeyLen(hdr), MaxKeyLen)
		if n == 0 {
			ss.err = fmt.Errorf("hart: recovery found live leaf %d with empty key", leaf)
			return false
		}
		if lazy {
			n = min(n, h.opts.HashKeyLen)
		}
		key := ss.keys.alloc(n)
		h.keyFromHeader(leaf, hdr, key)
		hk, _ := h.splitKey(key)
		w := int(fnv32(hk)) % workers
		ss.buckets[w] = append(ss.buckets[w], recLeaf{ref: makeLeafRef(leaf, hdrShape(hdr)), key: key})
		return true
	})
	if err != nil {
		return nil, err
	}
	nvals := 0
	for st := range sc.stripes {
		ss := &sc.stripes[st]
		if ss.err != nil {
			return nil, ss.err
		}
		nvals += len(ss.vals)
		for _, b := range ss.buckets {
			sc.live += len(b)
		}
	}
	sc.valSet = make([]pmem.Ptr, 0, nvals)
	for st := range sc.stripes {
		sc.valSet = append(sc.valSet, sc.stripes[st].vals...)
	}
	slices.Sort(sc.valSet)
	return sc, nil
}

// ptrSetHas reports membership in a sorted pointer slice.
func ptrSetHas(set []pmem.Ptr, p pmem.Ptr) bool {
	_, ok := slices.BinarySearch(set, p)
	return ok
}

// builtShard is one rebuilt (or pending) shard awaiting publication.
type builtShard struct {
	hk string
	s  *artShard
}

// buildPartition turns one worker's leaves into shards: one pass groups
// by hash key and batch-inserts each record into its shard's private
// tree — the batch clones nothing it already built, so this is an
// in-place build (legal: the directory is unpublished), with no per-leaf
// directory locking or size increment. Insertion order is irrelevant to
// ART shape, so no sort is needed; the coordinator orders the finished
// shards once for the bulk directory construction. Under LazyRecovery the
// group becomes a pending leaf list and the tree build is deferred to the
// shard's first touch.
func (h *HART) buildPartition(recs []recLeaf) []builtShard {
	if len(recs) == 0 {
		return nil
	}
	lazy := h.opts.LazyRecovery
	type shardBuild struct {
		s     *artShard
		batch *art.Batch
		pend  []leafRef
	}
	byHK := make(map[string]*shardBuild)
	var out []builtShard
	for _, r := range recs {
		// Under LazyRecovery the scan read only the hash key, so artKey is
		// empty; eager records carry the full key.
		hk, artKey := h.splitKey(r.key)
		sb := byHK[string(hk)]
		if sb == nil {
			sb = &shardBuild{s: newShard()}
			if !lazy {
				sb.batch = art.New().BeginBatch()
			}
			byHK[string(hk)] = sb
			out = append(out, builtShard{hk: string(hk), s: sb.s})
		}
		if lazy {
			sb.pend = append(sb.pend, r.ref)
		} else {
			sb.batch.Insert(artKey, uint64(r.ref))
		}
	}
	for _, bs := range out {
		sb := byHK[bs.hk]
		if lazy {
			sb.s.pending.Store(&pendingLeaves{leaves: sb.pend})
		} else {
			sb.s.tree.Store(sb.batch.Commit())
		}
	}
	return out
}

// sweepStaleAndOrphans runs recovery's two PM-repair passes.
//
// Stale-word sweep: a dead leaf slot whose word 0 is not zero was left by
// an interrupted insertion, deletion or scrub. The word may name a
// reclaimable orphan (value bit set, value owned by nobody), be a harmless
// stale pointer, or be an inline value's bytes — which can spell anything,
// the address of a live leaf or a live value included. reclaimStale
// follows it only where that is safe, and every such word is then zeroed,
// so that no later reuse of the slot finds anything to misread (see Delete
// for the runtime side). The candidates were collected by the scan phase;
// the writes land here, in stripe order.
//
// Orphan value sweep (mark-and-sweep): any committed value object
// referenced by no live leaf is unreachable forever — the residue of an
// unlogged update (Options.UnloggedUpdates) or of a baseline-style crash
// window — and is reclaimed. The value-chunk walk fans out per stripe; the
// releases land here, in class and stripe order. With Algorithm 3 updates
// this finds nothing; either way, a recovered HART starts leak-free.
func (h *HART) sweepStaleAndOrphans(sc *leafScan, workers int, stats *RecoveryStats) error {
	h.arena.SetPersistSite("recover.stale-sweep")
	referenced := func(vp pmem.Ptr) bool { return ptrSetHas(sc.valSet, vp) }
	for st := range sc.stripes {
		for _, d := range sc.stripes[st].dead {
			if err := h.reclaimStale(d.word0, referenced); err != nil {
				return err
			}
			h.scrubLeaf(d.leaf)
			stats.StaleSlotsZeroed++
		}
	}

	h.arena.SetPersistSite("recover.orphan-sweep")
	for i := range h.opts.ValueClasses {
		c := classValue0 + epalloc.Class(i)
		var orphans [epalloc.NumStripes][]pmem.Ptr
		if err := h.alloc.IterateObjectsParallel(c, workers, func(st int, vp pmem.Ptr, used bool) bool {
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
	}
	return nil
}

// buildPending builds a lazily recovered shard's ART from its pending
// leaf list: read each leaf's full key (the deferred read the scan phase
// skipped), sort, and batch-insert into a fresh tree. The caller holds
// s.mu exclusively. Ordering matters: the built tree is stored before
// pending is cleared, so any goroutine observing pending == nil is
// guaranteed to observe the complete tree.
func (h *HART) buildPending(s *artShard) {
	pp := s.pending.Load()
	if pp == nil {
		return
	}
	// One block that fits every key: the arena's default 64 KiB block would
	// be zeroed for a shard whose keys take a few hundred bytes.
	keys := byteArena{buf: make([]byte, 0, len(pp.leaves)*MaxKeyLen)}
	recs := make([]recLeaf, 0, len(pp.leaves))
	for _, ref := range pp.leaves {
		hdr := h.arena.Read8(ref.ptr() + lfKeyLen)
		key := keys.alloc(min(hdrKeyLen(hdr), MaxKeyLen))
		h.keyFromHeader(ref.ptr(), hdr, key)
		recs = append(recs, recLeaf{ref: ref, key: key})
	}
	slices.SortFunc(recs, func(a, b recLeaf) int { return bytes.Compare(a.key, b.key) })
	b := art.New().BeginBatch()
	for _, r := range recs {
		_, artKey := h.splitKey(r.key)
		b.Insert(artKey, uint64(r.ref))
	}
	s.tree.Store(b.Commit())
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
	// StaleSlotsZeroed counts dead leaf slots whose stale word 0 was
	// scrubbed (orphan values reclaimed along the way).
	StaleSlotsZeroed int
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
	// Per-phase wall times: update-log replay, leaf scan, index build and
	// consistency sweeps. The build overlaps the sweeps, so BuildNs
	// includes the sweep window it ran concurrently with.
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
	if !ul.POldV.IsNil() && ul.POldV != newV {
		if err := h.alloc.ResetBit(ul.POldV); err != nil { // line 9
			return err
		}
		if err := h.alloc.RecycleIfPresent(ul.POldV); err != nil { // line 10
			return err
		}
	}
	return nil
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

// fnv32 hashes a hash key for worker partitioning.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h & 0x7fffffff
}
