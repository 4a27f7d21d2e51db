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
	more := true
	for s := 0; s < NumStripes && more; s++ {
		if err := a.IterateStripeObjects(c, s, func(obj pmem.Ptr, used bool) bool {
			more = fn(obj, used)
			return more
		}); err != nil {
			return err
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
	for m := range a.chunks {
		if m.class == c {
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
	// (both lists): per chunk one record and one avail-queue slot, plus the
	// chunk-table pages that filing the class's chunks made.
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
				st.Used += bits.OnesCount64(a.readHeader(chunk).bitmap())
				if steps++; steps > limit {
					break
				}
			}
		}
		st.FreeChunks = a.FreeChunks(c)
		st.PMBytes = int64(st.Chunks+st.FreeChunks) * chunkSize(cs.spec.ObjSize)
		st.VolatileBytes = int64(st.Chunks+st.FreeChunks)*chunkMetaBytes + cs.tableBytes.Load()
		out[i] = st
	}
	return out
}

// Check is EPallocator's fsck. It validates, for every class:
//
//   - no chunk is reachable twice: the lists are acyclic and pairwise
//     disjoint, in particular across stripes;
//   - every chunk is a known reservation of the right class, registered to
//     the stripe whose list carries it;
//   - the stripe lists' union covers every registered chunk of the class
//     (no chunk has fallen off the partition);
//   - every chunk-list header's full indicator and next-free hint agree
//     with its bitmap;
//   - every chunk's DRAM header mirror, next link and list head equals its
//     PM word, and every prev link names the chunk-list predecessor (the
//     hot paths trust the mirrors; a divergence means a write bypassed one);
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
		for s := range cs.stripes {
			if err := a.checkStripe(c, s, seen); err != nil {
				return err
			}
		}
		// Coverage: every registered chunk of the class is on a list (one on
		// none is a persistent leak); each chunk seen is a distinct one.
		if n := int(cs.nchunks.Load()); len(seen) != n {
			return fmt.Errorf("%w: class %s has %d chunks registered but %d on its stripes' lists (leaked)",
				ErrCorrupt, cs.spec.Name, n, len(seen))
		}
		for s := range cs.stripes {
			ss := &cs.stripes[s]
			ss.mu.Lock()
			h, fh, pmH, pmFH := ss.head.ptr(), ss.freeHead.Load().ptr(), a.head(c, s), a.freeHead(c, s)
			ss.mu.Unlock()
			if h != pmH || fh != pmFH {
				return fmt.Errorf("%w: class %s stripe %d DRAM heads %d (chunk list) and %d (free list), PM holds %d and %d",
					ErrCorrupt, cs.spec.Name, s, h, fh, pmH, pmFH)
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

// checkStripe walks one stripe's chunk list and free list for Check under
// the stripe's lock, which every edit of either list, header or link
// holds, so the walk sees both whole and each mirror in step with its PM
// word. A cycle ends the walk as a chunk reachable twice, a wild pointer
// as one not registered. A free chunk's header is zero on PM and in its
// mirror (only an empty chunk is recycled; Attach leaves its mirror
// unread) and it is not queued for allocation, which would hand out its
// slots twice, once more when it is transferred.
func (a *Allocator) checkStripe(c Class, s int, seen map[pmem.Ptr]int) error {
	name := a.classes[c].spec.Name
	ss := &a.classes[c].stripes[s]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for listNo, head := range [2]pmem.Ptr{a.head(c, s), a.freeHead(c, s)} {
		list := [2]string{"chunk list", "free list"}[listNo]
		var pred *chunkMeta // the chunk-list predecessor; nil on the free list
		for chunk := head; !chunk.IsNil(); chunk = a.arena.ReadPtr(chunk + 8) {
			if prev, dup := seen[chunk]; dup {
				return fmt.Errorf("%w: class %s chunk %d reachable twice (stripe %d %s and stripe %d list %d)",
					ErrCorrupt, name, chunk, s, list, (prev-1)/2, (prev-1)%2)
			}
			seen[chunk] = s*2 + 1 + listNo
			m, err := a.lookupChunk(chunk + chunkDataOff)
			if err != nil || m.start != chunk || m.class != c {
				return fmt.Errorf("%w: class %s chunk %d on stripe %d's %s not a registered reservation",
					ErrCorrupt, name, chunk, s, list)
			}
			if st := int(m.stripe.Load()); st != s {
				return fmt.Errorf("%w: class %s chunk %d on stripe %d's %s but registered to stripe %d",
					ErrCorrupt, name, chunk, s, list, st)
			}
			h, mh, next := a.readHeader(chunk), header(m.hdr.Load()), a.arena.ReadPtr(chunk+8)
			if listNo == 1 && (h != 0 || mh != 0 || m.inAvail) {
				return fmt.Errorf("%w: class %s free chunk %d on stripe %d: header %#x, mirror %#x, queued %t",
					ErrCorrupt, name, chunk, s, uint64(h), uint64(mh), m.inAvail)
			}
			if mh != h {
				return fmt.Errorf("%w: class %s chunk %d header mirror %#x, PM holds %#x",
					ErrCorrupt, name, chunk, uint64(mh), uint64(h))
			}
			if m.next.ptr() != next || m.prev != pred {
				return fmt.Errorf("%w: class %s chunk %d on stripe %d's %s: DRAM links prev %d, next %d; PM has %d, %d",
					ErrCorrupt, name, chunk, s, list, m.prev.ptr(), m.next.ptr(), pred.ptr(), next)
			}
			if listNo == 1 {
				continue
			}
			pred = m
			if h.bitmap() == bitmapMask {
				if h.fullIndicator() != fullFull {
					return fmt.Errorf("%w: class %s chunk %d full but indicator %d",
						ErrCorrupt, name, chunk, h.fullIndicator())
				}
			} else {
				if h.fullIndicator() != fullAvailable {
					return fmt.Errorf("%w: class %s chunk %d has free slots but indicator %d",
						ErrCorrupt, name, chunk, h.fullIndicator())
				}
				if nf := h.nextFree(); nf < ObjectsPerChunk && h.bitmap()&(1<<uint(nf)) != 0 {
					return fmt.Errorf("%w: class %s chunk %d next-free hint %d points at a used slot",
						ErrCorrupt, name, chunk, nf)
				}
			}
		}
	}
	return nil
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
	for m := range a.chunks {
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
