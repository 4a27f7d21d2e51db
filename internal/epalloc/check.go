package epalloc

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// IterateStripeObjects calls fn for every slot of every chunk on one
// stripe's chunk list, reporting whether the slot's persistent bit is set.
// List order within the stripe is most recently linked chunk first —
// deterministic for a deterministic history. The walk only reads PM, so
// distinct stripes may be iterated concurrently (HART's parallel recovery
// scan fans one goroutine per stripe).
func (a *Allocator) IterateStripeObjects(c Class, stripe int, fn func(obj pmem.Ptr, used bool) bool) error {
	cs := &a.classes[c]
	limit := int(cs.nchunks.Load()) + 1
	steps := 0
	for chunk := a.head(c, stripe); !chunk.IsNil(); chunk = a.arena.ReadPtr(chunk + 8) {
		if steps++; steps > limit {
			return fmt.Errorf("%w: class %s stripe %d chunk list longer than %d chunks (cycle?)",
				ErrCorrupt, cs.spec.Name, stripe, limit-1)
		}
		h := a.readHeader(chunk)
		for i := 0; i < ObjectsPerChunk; i++ {
			if !fn(a.SlotAddr(chunk, c, i), h.bitmap()&(1<<uint(i)) != 0) {
				return nil
			}
		}
	}
	return nil
}

// IterateObjects calls fn for every slot of every chunk on the class's
// chunk lists, reporting whether the slot's persistent bit is set. This is
// the traversal HART's recovery uses (Algorithm 7 lines 2-6). Iteration
// order is stripe order, then list order within a stripe (most recently
// linked chunk first) — deterministic for a deterministic history.
func (a *Allocator) IterateObjects(c Class, fn func(obj pmem.Ptr, used bool) bool) error {
	stopped := false
	wrapped := func(obj pmem.Ptr, used bool) bool {
		if !fn(obj, used) {
			stopped = true
			return false
		}
		return true
	}
	for s := 0; s < NumStripes; s++ {
		if err := a.IterateStripeObjects(c, s, wrapped); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// IterateObjectsParallel is IterateObjects with the stripes fanned out
// across min(workers, NumStripes) goroutines. fn additionally receives
// the stripe index; calls for one stripe always come from a single
// goroutine in list order, so per-stripe state needs no synchronisation
// (calls for different stripes race). fn returning false stops that
// stripe's walk only. With workers <= 1 the fan-out is skipped entirely
// and fn observes exactly IterateObjects' serial order.
func (a *Allocator) IterateObjectsParallel(c Class, workers int, fn func(stripe int, obj pmem.Ptr, used bool) bool) error {
	stripeFn := func(s int) func(obj pmem.Ptr, used bool) bool {
		return func(obj pmem.Ptr, used bool) bool { return fn(s, obj, used) }
	}
	if workers > NumStripes {
		workers = NumStripes
	}
	if workers <= 1 {
		for s := 0; s < NumStripes; s++ {
			if err := a.IterateStripeObjects(c, s, stripeFn(s)); err != nil {
				return err
			}
		}
		return nil
	}
	var errs [NumStripes]error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < NumStripes; s += workers {
				errs[s] = a.IterateStripeObjects(c, s, stripeFn(s))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CountUsed returns the number of live objects in the class.
func (a *Allocator) CountUsed(c Class) (int, error) {
	n := 0
	err := a.IterateObjects(c, func(_ pmem.Ptr, used bool) bool {
		if used {
			n++
		}
		return true
	})
	return n, err
}

// UsedPerStripe counts each stripe's live objects of the class from the
// header mirrors, with no PM load: a size hint for a walk about to read
// the PM headers themselves (recovery presizes its per-stripe state with
// it). A free-list chunk's mirror is zero, so only chunk-list chunks
// count.
func (a *Allocator) UsedPerStripe(c Class) (n [NumStripes]int) {
	for _, r := range a.rangeSnapshot() {
		if m := r.meta; m.class == c {
			n[m.stripe.Load()] += bits.OnesCount64(header(m.hdr.Load()).bitmap())
		}
	}
	return n
}

// ClassStats summarises one class for diagnostics and the memory-
// consumption experiment (Fig. 10b).
type ClassStats struct {
	// Name is the class label.
	Name string
	// ObjSize is the slot size in bytes.
	ObjSize int64
	// Chunks is the number of chunks on the chunk lists (all stripes).
	Chunks int
	// FreeChunks is the number of chunks on the free lists (all stripes).
	FreeChunks int
	// Used is the number of live objects.
	Used int
	// PMBytes is the PM footprint of all the class's chunks (both lists).
	PMBytes int64
	// VolatileBytes is the DRAM the allocator keeps for the class's chunks
	// (both lists): per chunk one record with the header mirror and slot
	// bookkeeping, one extent-index entry and one avail-queue slot.
	VolatileBytes int64
}

// Stats returns per-class statistics.
func (a *Allocator) Stats() []ClassStats {
	out := make([]ClassStats, len(a.classes))
	for i := range a.classes {
		c := Class(i)
		cs := &a.classes[i]
		st := ClassStats{Name: cs.spec.Name, ObjSize: cs.spec.ObjSize}
		limit := int(cs.nchunks.Load()) + 1
		for s := 0; s < NumStripes; s++ {
			steps := 0
			for chunk := a.head(c, s); !chunk.IsNil(); chunk = a.arena.ReadPtr(chunk + 8) {
				st.Chunks++
				h := a.readHeader(chunk)
				st.Used += ObjectsPerChunk - h.free()
				if steps++; steps > limit {
					break
				}
			}
		}
		st.FreeChunks = a.FreeChunks(c)
		st.PMBytes = int64(st.Chunks+st.FreeChunks) * chunkSize(cs.spec.ObjSize)
		st.VolatileBytes = int64(st.Chunks+st.FreeChunks) * chunkMetaBytes
		out[i] = st
	}
	return out
}

// Check is EPallocator's fsck. It validates, for every class:
//
//   - every stripe's chunk list and free list is acyclic, and the lists of
//     all stripes are pairwise disjoint (no chunk reachable twice — in
//     particular, never from two stripes);
//   - every chunk is a known reservation of the right class, registered to
//     the stripe whose list carries it;
//   - the stripe lists' union covers every registered chunk of the class
//     (no chunk has fallen off the partition);
//   - every chunk-list header's full indicator and next-free hint agree
//     with its bitmap;
//   - every chunk's DRAM header mirror equals its PM header (the hot paths
//     trust the mirror; a divergence means a header write bypassed it);
//   - every free-list chunk's header is zero and the chunk is not queued
//     for allocation;
//   - no armed micro-log remains on any stripe (a quiescent allocator has
//     none).
//
// It returns nil when all invariants hold.
func (a *Allocator) Check() error {
	for i := range a.classes {
		c := Class(i)
		cs := &a.classes[i]
		seen := make(map[pmem.Ptr]int) // stripe*2 + list (0 chunk, 1 free), +1
		limit := int(cs.nchunks.Load()) + 1
		for s := 0; s < NumStripes; s++ {
			steps := 0
			for chunk := a.head(c, s); !chunk.IsNil(); chunk = a.arena.ReadPtr(chunk + 8) {
				if steps++; steps > limit {
					return fmt.Errorf("%w: class %s stripe %d chunk list cycle", ErrCorrupt, cs.spec.Name, s)
				}
				if prev, dup := seen[chunk]; dup {
					return fmt.Errorf("%w: class %s chunk %d reachable twice (stripe %d chunk list and stripe %d list %d)",
						ErrCorrupt, cs.spec.Name, chunk, s, (prev-1)/2, (prev-1)%2)
				}
				seen[chunk] = s*2 + 1
				m, ok := a.lookupChunk(chunk + chunkDataOff)
				if !ok || m.start != chunk || m.class != c {
					return fmt.Errorf("%w: class %s chunk %d not a registered reservation", ErrCorrupt, cs.spec.Name, chunk)
				}
				if st := int(m.stripe.Load()); st != s {
					return fmt.Errorf("%w: class %s chunk %d on stripe %d's list but registered to stripe %d",
						ErrCorrupt, cs.spec.Name, chunk, s, st)
				}
				h, err := a.auditHeader(m)
				if err != nil {
					return err
				}
				if h.bitmap() == bitmapMask {
					if h.fullIndicator() != fullFull {
						return fmt.Errorf("%w: class %s chunk %d full but indicator %d",
							ErrCorrupt, cs.spec.Name, chunk, h.fullIndicator())
					}
				} else {
					if h.fullIndicator() != fullAvailable {
						return fmt.Errorf("%w: class %s chunk %d has free slots but indicator %d",
							ErrCorrupt, cs.spec.Name, chunk, h.fullIndicator())
					}
					if nf := h.nextFree(); nf < ObjectsPerChunk && h.bitmap()&(1<<uint(nf)) != 0 {
						return fmt.Errorf("%w: class %s chunk %d next-free hint %d points at a used slot",
							ErrCorrupt, cs.spec.Name, chunk, nf)
					}
				}
			}
			if err := a.checkFreeList(c, s, limit, seen); err != nil {
				return err
			}
		}
		// Coverage: the stripe partition must account for every registered
		// chunk of the class — a chunk on no list is a persistent leak.
		for _, r := range a.rangeSnapshot() {
			if r.meta.class != c {
				continue
			}
			if seen[r.start] == 0 {
				return fmt.Errorf("%w: class %s chunk %d registered but on no stripe's lists (leaked)",
					ErrCorrupt, cs.spec.Name, r.start)
			}
		}
	}
	for s := 0; s < NumStripes; s++ {
		if cur := a.arena.ReadPtr(a.rlogAddr(s) + rlCurOff); !cur.IsNil() {
			return fmt.Errorf("%w: stripe %d recycle log still armed (chunk %d)", ErrCorrupt, s, cur)
		}
		if chunk := a.arena.ReadPtr(a.tlogAddr(s) + tlChunkOff); !chunk.IsNil() {
			return fmt.Errorf("%w: stripe %d transfer log still armed (chunk %d)", ErrCorrupt, s, chunk)
		}
	}
	return nil
}

// checkFreeList walks one stripe's free list for Check under the stripe's
// lock, which every push and pop of that list holds, so the walk sees the
// list whole. A free chunk's header is zero on PM and in its mirror —
// only an empty chunk is recycled, and Attach leaves a free chunk's mirror
// unread — and the chunk is not queued for allocation: a free chunk that
// hands out slots is handed out twice, once more when it is transferred.
func (a *Allocator) checkFreeList(c Class, s, limit int, seen map[pmem.Ptr]int) error {
	name := a.classes[c].spec.Name
	ss := &a.classes[c].stripes[s]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	steps := 0
	for chunk := a.freeHead(c, s); !chunk.IsNil(); chunk = a.arena.ReadPtr(chunk + 8) {
		if steps++; steps > limit {
			return fmt.Errorf("%w: class %s stripe %d free list cycle", ErrCorrupt, name, s)
		}
		if prev, dup := seen[chunk]; dup {
			return fmt.Errorf("%w: class %s chunk %d reachable twice (stripe %d free list and stripe %d list %d)",
				ErrCorrupt, name, chunk, s, (prev-1)/2, (prev-1)%2)
		}
		seen[chunk] = s*2 + 2
		m, ok := a.lookupChunk(chunk + chunkDataOff)
		if !ok || m.start != chunk || m.class != c {
			return fmt.Errorf("%w: class %s free chunk %d not a registered reservation", ErrCorrupt, name, chunk)
		}
		if h, mh := a.readHeader(chunk), header(m.hdr.Load()); h != 0 || mh != 0 || m.inAvail {
			return fmt.Errorf("%w: class %s free chunk %d on stripe %d: header %#x, mirror %#x, queued %t",
				ErrCorrupt, name, chunk, s, uint64(h), uint64(mh), m.inAvail)
		}
	}
	return nil
}

// auditHeader reads a chunk's PM header and compares it with the mirror,
// under the chunk's stripe lock so that a concurrent header write is seen
// on both sides or on neither.
func (a *Allocator) auditHeader(m *chunkMeta) (header, error) {
	ss := a.lockChunk(m)
	defer ss.mu.Unlock()
	h := a.readHeader(m.start)
	if mh := header(m.hdr.Load()); mh != h {
		return h, fmt.Errorf("%w: class %s chunk %d header mirror %#x, PM holds %#x",
			ErrCorrupt, a.classes[m.class].spec.Name, m.start, uint64(mh), uint64(h))
	}
	return h, nil
}

// CheckQuiescent runs Check plus the invariants that only hold when no
// operation is in flight:
//
//   - no slot is volatile-in-flight (every AllocStripe was followed by
//     SetBit or Free, every Retire by Free — a lingering in-flight bit is
//     a volatile leak that makes the slot unallocatable until restart);
//   - no persistent update log is armed and no volatile ulog slot is busy
//     (an armed ulog between operations means an update error path forgot
//     to Reclaim, permanently shrinking the pool).
//
// Check stays separate because concurrent callers legitimately hold
// in-flight slots and armed ulogs mid-operation; quiescent invariants are
// for the gaps between operations (and for post-recovery states, which
// must always be quiescent).
func (a *Allocator) CheckQuiescent() error {
	if err := a.Check(); err != nil {
		return err
	}
	for _, r := range a.rangeSnapshot() {
		m := r.meta
		ss := a.lockChunk(m)
		inFlight := m.inFlight
		ss.mu.Unlock()
		if inFlight != 0 {
			return fmt.Errorf("%w: class %s stripe %d chunk %d has in-flight slots %#x (leaked AllocStripe, or Retire without Free?)",
				ErrCorrupt, a.classes[m.class].spec.Name, m.stripe.Load(), m.start, inFlight)
		}
	}
	if logs := a.PendingUpdateLogs(); len(logs) != 0 {
		return fmt.Errorf("%w: %d update log(s) still armed at quiescence (slot %d, leaf %d)",
			ErrCorrupt, len(logs), logs[0].Index, logs[0].PLeaf)
	}
	var busy uint64
	for s := 0; s < NumStripes; s++ {
		busy |= a.ulogs.busy[s].Load() << uint(s*ulogsPerStripe)
	}
	if busy != 0 {
		return fmt.Errorf("%w: update-log slots %#x busy at quiescence (missing Reclaim?)", ErrCorrupt, busy)
	}
	return nil
}
