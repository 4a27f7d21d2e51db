package core

import (
	"fmt"
	"math/bits"
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
//     stripe meets every leaf of that stripe's shards: it loads each live
//     leaf's header word once and appends one record of that word and the
//     leaf's ref to the stripe's log. It also collects the live value
//     references per stripe. Dead slots are skipped unread. Nothing is
//     shared but the set of hash keys that have a shard.
//  3. Orphan sweep — the value-chunk walk fans out per stripe, but every
//     release it decides on is applied by this goroutine in stripe order:
//     recovery's persist sequence stays deterministic at any worker count
//     (the property the differential crash checker replays against), and
//     an injected crash always surfaces on the caller.
//
// Then the build: leaves found on a stripe other than their shard's (no
// writer leaves one, but an image may hold one) join their shard's stripe
// log, and every shard is made, pointing at its run of its stripe's log.
// An eager recovery groups each stripe's log and builds each of its shards
// privately, one task per stripe; a lazy one leaves each build to the
// shard's first touch (Options.LazyRecovery). Either way the directory and
// the size counter are published once, so a Rebuild on a live store never
// exposes a partially rebuilt index.
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

	// Phase 2: parallel leaf scan (Algorithm 7 lines 2-5).
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

	// Strays, the eager builds (Algorithm 7 line 6), then publish: one
	// atomic store each for the directory and the size, so concurrent
	// readers see the old index or the complete new one.
	t = time.Now()
	keys, shards := scan.finish(h)
	if h.opts.LazyRecovery {
		stats.PendingShards = len(keys)
	} else {
		fanOut(workers, len(scan.stripes), func(st int) {
			ss := &scan.stripes[st]
			buildStripe(ss.log, ss.shards, h.buildShard)
		})
	}
	h.dirMu.Lock()
	h.dir.Store(hashdir.NewFromSorted(keys, shards))
	h.dirMu.Unlock()
	h.obs.dirPublish.Add(1)
	h.size.Store(int64(scan.live))
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

// stripeScan is one stripe's share of the leaf scan. Each stripe is
// walked by exactly one goroutine, and a shard's records live in the
// stripe of its hash key, so none of this needs locking; the coordinator
// reads the stripes in index order, which keeps stray filing deterministic
// regardless of worker count.
type stripeScan struct {
	recs   []leafRec // every live leaf of the stripe's shards, until finish logs them
	hks    []uint64  // the stripe's shards' packed hash keys
	strays []leafRec // live leaves whose shard is another stripe's
	vals   []pmem.Ptr
	err    error
	// After finish: the stripe's log, and its shards, shard i building
	// from run i of the log.
	log    *stripeLog
	shards []*artShard
}

// leafScan is the merged result of the scan phase.
type leafScan struct {
	stripes [epalloc.NumStripes]stripeScan
	seen    hashKeySet // the hash keys that have a shard
	valSet  []pmem.Ptr // sorted live value references
	live    int
}

// file appends one live leaf, whose packed hash key is p, to stripe st's
// records, which are its hash key's, and makes the hash key a shard of
// the stripe on its first sighting.
func (sc *leafScan) file(st int, p uint64, r leafRec) {
	ss := &sc.stripes[st]
	if sc.seen.add(p) {
		ss.hks = append(ss.hks, p)
	}
	ss.recs = append(ss.recs, r)
}

// leafClasses are the classes recovery's leaf scan walks, in walk order.
var leafClasses = [...]epalloc.Class{classLeaf24, classLeaf40}

// scanLeaves walks every leaf chunk with up to `workers` goroutines (one
// per allocator stripe), filing each live leaf in its shard's stripe log
// and collecting per-stripe value references; a dead slot is skipped
// without a load. The two leaf classes are walked one after the other into
// the same per-stripe state: a shard's leaves of both classes sit on its
// stripe, and each stripe's strays keep walk order. Each live leaf costs
// the one header load classifyLeaf makes (and word 0 for a value object):
// the record keeps the header word, whose leading key bytes name the
// leaf's shard and whose length and key bytes the build needs, so no
// build loads it again. The logs are presized from the allocator's header
// mirrors. A live leaf whose header claims a key its slot cannot hold is
// refused before any key byte is read.
func (h *HART) scanLeaves(workers int) (*leafScan, error) {
	kh := h.opts.HashKeyLen
	sc := &leafScan{seen: make(hashKeySet, (hashKeyBase[kh+1]+63)/64)}
	var used [epalloc.NumStripes]int
	for _, c := range leafClasses {
		u := h.alloc.UsedPerStripe(c)
		for st := range used {
			used[st] += u[st]
		}
	}
	for st := range sc.stripes {
		sc.stripes[st].recs = make([]leafRec, 0, used[st])
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
			if n := hdrKeyLen(hdr); n == 0 || n > keyCap {
				ss.err = fmt.Errorf("hart: recovery found live leaf %d with key length %d; its %d-byte slot holds keys of 1 to %d bytes",
					leaf, n, classSizes[c], keyCap)
				return false
			}
			r := leafRec{hdr: hdr, ref: makeLeafRef(leaf, hdrShape(hdr))}
			if h.homeStripe(r) == st {
				sc.file(st, hashKeyOf(hdr, kh), r)
			} else {
				ss.strays = append(ss.strays, r)
			}
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
		sc.live += len(ss.recs) + len(ss.strays)
	}
	sc.valSet = make([]pmem.Ptr, 0, nvals)
	for st := range sc.stripes {
		sc.valSet = append(sc.valSet, sc.stripes[st].vals...)
	}
	slices.Sort(sc.valSet)
	return sc, nil
}

// homeStripe is the allocator stripe of the shard that owns r's leaf: the
// stripe of its hash key, whose at most kh bytes the header word holds.
func (h *HART) homeStripe(r leafRec) int {
	var buf [hashdir.MaxKeyLen]byte
	hk := buf[:min(hdrKeyLen(r.hdr), h.opts.HashKeyLen)]
	h.keyFromHeader(r.ref.ptr(), r.hdr, hk)
	return epalloc.StripeFor(hk)
}

// finish files the strays with their shards, in stripe order, turns each
// stripe's records into its log, then makes every shard, pointing it at
// its run of its stripe's log, and returns the shards with their hash
// keys; each stripeScan keeps its own log and shards.
func (sc *leafScan) finish(h *HART) (keys []string, shards []*artShard) {
	kh := h.opts.HashKeyLen
	for st := range sc.stripes {
		for _, r := range sc.stripes[st].strays {
			sc.file(h.homeStripe(r), hashKeyOf(r.hdr, kh), r)
		}
	}
	for st := range sc.stripes {
		ss := &sc.stripes[st]
		ss.log = &stripeLog{recs: ss.recs, kh: kh}
		ss.recs = nil
		// Shard i of the stripe is the i-th run of its grouped log.
		slices.Sort(ss.hks)
		ss.log.left.Store(int64(len(ss.hks)))
		pend := make([]pendingLeaves, len(ss.hks))
		first := len(shards)
		for i, p := range ss.hks {
			pend[i] = pendingLeaves{log: ss.log, run: i}
			s := newShard()
			s.pending.Store(&pend[i])
			keys = append(keys, unpackHashKey(p))
			shards = append(shards, s)
		}
		ss.shards = shards[first:]
	}
	return keys, shards
}

// hashKeyBase[n] is where the n-byte hash keys start in the packed space:
// one range per length, so a key shorter than kh never packs like a
// longer one, and hashKeyBase[kh+1] is the size of the space.
var hashKeyBase = [hashdir.MaxKeyLen + 2]uint64{0, 0, 1 << 8, 1<<8 + 1<<16, 1<<8 + 1<<16 + 1<<24}

// hashKeyOf is the packed hash key of the leaf whose header word is hdr:
// its leading min(keyLen, kh) key bytes, which the header word holds,
// little-endian, offset by their count's base.
func hashKeyOf(hdr uint64, kh int) uint64 {
	n := min(hdrKeyLen(hdr), kh)
	return hashKeyBase[n] + hdr>>(8*(lfKey-lfKeyLen))&(1<<(8*n)-1)
}

// unpackHashKey returns the hash key that packs to p.
func unpackHashKey(p uint64) string {
	n := 1
	for p >= hashKeyBase[n+1] {
		n++
	}
	p -= hashKeyBase[n]
	var buf [hashdir.MaxKeyLen]byte
	for i := range n {
		buf[i] = byte(p >> (8 * uint(i)))
	}
	return string(buf[:n])
}

// hashKeySet is the scan's set of the packed hash keys that have a
// shard: one bit each, 32 B at kh = 1, 8 KB at kh = 2 and 2.1 MB at
// kh = 3. Only the walk of a key's own stripe sets its bit, but the keys
// of all stripes share words, so every access is atomic.
type hashKeySet []atomic.Uint64

// add sets p's bit and reports whether it was clear.
func (s hashKeySet) add(p uint64) bool {
	w, bit := &s[p/64], uint64(1)<<(p%64)
	if w.Load()&bit != 0 {
		return false
	}
	w.Or(bit)
	return true
}

// leafRec is the scan's record of one live leaf: its header word, which
// holds the key's length and leading bytes, and its ref, 16 bytes.
type leafRec struct {
	hdr uint64
	ref leafRef
}

// stripeLog holds recovery's live leaves of one allocator stripe's shards,
// in walk order until the first build that needs them groups them by hash
// key; then each of the stripe's shards builds from its own run, and the
// last one frees the log.
type stripeLog struct {
	recs    []leafRec
	runs    []int32 // after grouping: run i is recs[runs[i]:runs[i+1]]
	kh      int     // the store's hash-key length
	grouped sync.Once
	left    atomic.Int64 // the stripe's shards not yet built
}

// radixBits is the widest digit of the radix sort that groups a log.
const radixBits = 9

// group orders the log by packed hash key, once, and notes where each
// key's run starts. The sort is a most-significant-digit radix sort in
// place, digits of at most radixBits bits (two at kh = 2): it costs
// O(records) per digit, no comparison, and no allocation beyond the run
// table, so a grouping never pays the collector for a scratch copy of
// the log.
func (lg *stripeLog) group() {
	lg.grouped.Do(func() {
		if len(lg.recs) > 0 {
			keyBits := bits.Len64(hashKeyBase[lg.kh+1] - 1)
			passes := (keyBits + radixBits - 1) / radixBits
			width := (keyBits + passes - 1) / passes
			radixGroup(lg.recs, lg.kh, uint((passes-1)*width), uint(width))
		}
		last := ^uint64(0)
		for i, r := range lg.recs {
			if p := hashKeyOf(r.hdr, lg.kh); p != last {
				lg.runs = append(lg.runs, int32(i))
				last = p
			}
		}
		lg.runs = append(lg.runs, int32(len(lg.recs)))
	})
}

// radixGroup orders recs by the packed hash-key bits below shift+width in
// place (kh bytes long at most): it permutes them into one bucket per
// digit at shift (each record moved straight to its bucket, American-flag
// style), then orders each bucket by the next lower digit.
func radixGroup(recs []leafRec, kh int, shift, width uint) {
	mask := uint64(1)<<width - 1
	digit := func(r leafRec) uint64 { return hashKeyOf(r.hdr, kh) >> shift & mask }
	var next, end [1 << radixBits]int32
	for _, r := range recs {
		end[digit(r)]++
	}
	if int(end[digit(recs[0])]) == len(recs) {
		// One digit: nothing to move at this level.
		if shift > 0 {
			radixGroup(recs, kh, shift-width, width)
		}
		return
	}
	var sum int32
	for d, n := range end {
		next[d] = sum
		sum += n
		end[d] = sum
	}
	for d := range next {
		for next[d] < end[d] {
			r := recs[next[d]]
			for e := digit(r); e != uint64(d); e = digit(r) {
				recs[next[e]], r = r, recs[next[e]]
				next[e]++
			}
			recs[next[d]] = r
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	start := int32(0)
	for _, e := range end {
		if e-start > 1 {
			radixGroup(recs[start:e], kh, shift-width, width)
		}
		start = e
	}
}

// run returns the log's i-th run of one hash key, grouping it first.
func (lg *stripeLog) run(i int) []leafRec {
	lg.group()
	return lg.recs[lg.runs[i]:lg.runs[i+1]]
}

// built counts one of the stripe's shards as built, freeing the log with
// the last: every other build has read its run before its own count.
func (lg *stripeLog) built() {
	if lg.left.Add(-1) == 0 {
		lg.recs, lg.runs = nil, nil
	}
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

// buildShard builds s's ART from its run of its stripe's log and clears
// its pending: each record's header word gives the key's length and first
// hdrKeyBytes bytes, so only a longer key's tail is read from PM, and each
// leaf is batch-inserted into a fresh tree; ART shape does not depend on
// insertion order. The caller holds s.mu exclusively, or s is not yet
// published. Ordering matters: the built tree is stored before pending is
// cleared, so any goroutine observing pending == nil is guaranteed to
// observe the complete tree.
func (h *HART) buildShard(s *artShard) {
	pp := s.pending.Load()
	b := art.New().BeginBatch()
	var buf [MaxKeyLen]byte
	recs := pp.log.run(pp.run)
	for i, r := range recs {
		if i+buildAhead < len(recs) {
			h.arena.Prefetch(recs[i+buildAhead].ref.ptr() + lfKey + hdrKeyBytes)
		}
		key := buf[:hdrKeyLen(r.hdr)] // the scan refused any length its slot cannot hold
		h.keyFromHeader(r.ref.ptr(), r.hdr, key)
		_, artKey := h.splitKey(key)
		b.Insert(artKey, uint64(r.ref))
	}
	b.Publish(&s.root)
	s.pending.Store(nil)
	pp.log.built()
}

// buildAhead is how many records ahead of its insert a build hints the
// leaf's key tail toward the cache: the log's runs visit leaves in hash-key
// order, not address order, so each tail load would otherwise miss.
const buildAhead = 8

// buildPending builds a published shard whose lazy build is still pending
// and counts it off PendingShards. The caller holds s.mu exclusively.
func (h *HART) buildPending(s *artShard) {
	if s.pending.Load() == nil {
		return
	}
	h.buildShard(s)
	h.pendingShards.Add(-1)
}

// buildStripe is one stripe's task in an eager recovery or a drain: group
// the stripe's log, outside any shard lock, then build each of the
// stripe's shards with build.
func buildStripe(lg *stripeLog, shards []*artShard, build func(*artShard)) {
	lg.group()
	for _, s := range shards {
		build(s)
	}
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
// grouping each stripe's log once and then building every still-pending
// shard's ART, one task per stripe (buildStripe, as an eager recovery
// runs before publish) across Options.RecoveryWorkers goroutines. It
// is idempotent, cheap when nothing is pending, purely volatile (no PM
// write — the durable state is identical before and after, so a crash
// mid-drain recovers exactly like a crash before it), and safe to run
// concurrently with readers and writers: each build holds its shard's
// write lock. Open does not wait for it; callers wanting eager behaviour
// in the background can run `go h.DrainRecovery()` right after Open.
func (h *HART) DrainRecovery() {
	if h.pendingShards.Load() <= 0 {
		return
	}
	var logs []*stripeLog
	var pend [][]*artShard // pend[i]: log i's shards
	h.dir.Load().Range(func(_ []byte, s *artShard) bool {
		if pp := s.pending.Load(); pp != nil {
			i := slices.Index(logs, pp.log)
			if i < 0 {
				i = len(logs)
				logs, pend = append(logs, pp.log), append(pend, nil)
			}
			pend[i] = append(pend[i], s)
		}
		return true
	})
	fanOut(h.opts.RecoveryWorkers, len(logs), func(i int) { buildStripe(logs[i], pend[i], h.drainShard) })
}

// fanOut calls fn(0) to fn(n-1) on up to workers goroutines.
func fanOut(workers, n int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
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
	// update-log replay; ScanNs the leaf scan, the walk that fills the
	// stripes' logs, in both modes; SweepNs the orphan sweep; BuildNs the
	// rest: filing leaves found off their shard's stripe, making the
	// shards, grouping the logs and building every shard's tree (eager
	// only: a lazy recovery leaves those two to first touch and
	// DrainRecovery), and publishing the directory.
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
