package epalloc

import (
	"fmt"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// recycleLocked implements EPRecycle (Algorithm 6) with the chunk's stripe
// lock held, for Release and Free: if the chunk has no live or in-flight
// object, it is unlinked from its stripe's chunk list under the stripe's
// persistent recycle log and pushed onto the stripe's free list for reuse
// (the paper's pfree). It is a no-op when the chunk still has used objects
// (Algorithm 6 lines 1-2). Lenient mode treats "chunk not on the list" as
// success instead of corruption. The operation is local to the chunk's
// current stripe: its lock, its lists, its recycle-log slot. The chunk's
// DRAM links name its neighbours, so the recycle loads nothing from PM.
//
// The log protocol hardens Algorithm 6 slightly: PPrev records the PM
// address of the *link field* pointing at the chunk (the stripe's head
// field or the predecessor's PNext field) and is armed before PCurrent, so
// recovery never has to guess whether the chunk was the head. See
// recoverLogs for the case analysis.
func (a *Allocator) recycleLocked(m *chunkMeta, ss *stripeState, lenient bool) error {
	chunk, c, stripe := m.start, m.class, int(m.stripe.Load())
	if header(m.hdr.Load()).bitmap() != 0 || m.inFlight != 0 {
		return nil // chunk has a used object (Algorithm 6 lines 1-2)
	}
	// Keep at least one chunk per stripe linked: recycling the only chunk
	// just to re-reserve one on the next AllocStripe would thrash.
	if ss.head == m && m.next == nil {
		return nil
	}
	if m.prev == nil && ss.head != m { // on the free list
		if lenient {
			return nil
		}
		return fmt.Errorf("%w: chunk %d not on class %d stripe %d list", ErrCorrupt, chunk, c, stripe)
	}
	// The link field pointing at the chunk.
	link := a.headAddr(c, stripe)
	if m.prev != nil {
		link = m.prev.start + 8 // predecessor's PNext field
	}

	ar := a.arena
	rl := a.rlogAddr(stripe)

	// Arm the stripe's recycle log: PPrev (link field address) first,
	// class, then PCurrent last — the slot is armed iff PCurrent != 0. The
	// stripe lock is what gives the writer exclusive use of the slot.
	ar.WritePtr(rl+rlPrevOff, link)
	ar.Persist(rl+rlPrevOff, 8)
	ar.Write8(rl+rlClassOff, uint64(c))
	ar.Persist(rl+rlClassOff, 8)
	ar.WritePtr(rl+rlCurOff, chunk)
	ar.Persist(rl+rlCurOff, 8)

	// Unlink (Algorithm 6 line 6 / line 10).
	ar.WritePtr(link, m.next.ptr())
	ar.Persist(link, 8)
	if m.prev != nil {
		m.prev.next = m.next
	} else {
		ss.head = m.next
	}
	if m.next != nil {
		m.next.prev = m.prev
	}

	// pfree (Algorithm 6 line 11): push onto the stripe's free list.
	a.pushFreeList(c, stripe, chunk, ss.freeHead.Load().ptr())
	m.prev, m.next = nil, ss.freeHead.Load()
	ss.freeHead.Store(m)

	// Reclaim the log (Algorithm 6 line 12).
	ar.WritePtr(rl+rlCurOff, pmem.Nil)
	ar.Persist(rl+rlCurOff, 8)

	a.metrics.Recycles.AddStripe(stripe, 1)

	// Volatile bookkeeping: the chunk no longer offers slots.
	if m.inAvail {
		m.inAvail = false
		for i, q := range ss.avail {
			if q == m {
				ss.avail = append(ss.avail[:i], ss.avail[i+1:]...)
				break
			}
		}
	}
	return nil
}

// pushFreeList pushes chunk onto class c, stripe s's free list, whose head
// is head. Both steps are individually idempotent given the recovery
// guards in recoverLogs.
func (a *Allocator) pushFreeList(c Class, stripe int, chunk, head pmem.Ptr) {
	ar := a.arena
	ar.WritePtr(chunk+8, head)
	ar.Persist(chunk+8, 8)
	ar.WritePtr(a.freeHeadAddr(c, stripe), chunk)
	ar.Persist(a.freeHeadAddr(c, stripe), 8)
}

// FreeChunks returns the number of chunks on the class's free lists across
// all stripes.
func (a *Allocator) FreeChunks(c Class) int {
	total := 0
	limit := int(a.classes[c].nchunks.Load()) + 1
	for s := 0; s < NumStripes; s++ {
		n := 0
		for p := a.freeHead(c, s); !p.IsNil(); p = a.arena.ReadPtr(p + 8) {
			n++
			if n > limit {
				return -1 // cycle; Check reports the detail
			}
		}
		total += n
	}
	return total
}

// recoverLogs completes any chunk-list operation interrupted by a crash:
// each stripe's recycle log (chunk leaving the stripe's chunk list) and
// transfer log (chunk joining the stripe's chunk list, popped from some
// stripe's free list or freshly reserved). Called once from Attach, before
// any volatile state is rebuilt. At most one slot per stripe can be armed
// (both run under the stripe lock), and slots of different stripes record
// independent operations — a cross-stripe steal arms only the destination
// stripe's transfer slot while holding both stripe locks — so replay order
// across stripes does not matter.
func (a *Allocator) recoverLogs() error {
	ar := a.arena

	for s := 0; s < NumStripes; s++ {
		// Recycle log. Armed iff PCurrent != 0.
		rl := a.rlogAddr(s)
		if cur := ar.ReadPtr(rl + rlCurOff); !cur.IsNil() {
			link := ar.ReadPtr(rl + rlPrevOff)
			c := Class(ar.Read8(rl + rlClassOff))
			if link.IsNil() || int(c) >= len(a.classes) {
				return fmt.Errorf("%w: stripe %d recycle log armed with invalid state (link=%d class=%d)",
					ErrCorrupt, s, link, c)
			}
			// The replay follows both words: cur names a chunk, and link
			// the stripe's head field or a chunk's PNext field.
			if !a.inChunkArea(cur, c) || link != a.headAddr(c, s) && !a.inChunkArea(link-8, c) {
				return fmt.Errorf("%w: stripe %d recycle log names chunk %d behind link %d; want an 8-aligned class %s chunk within the chunk area [%d,%d), behind the stripe's head or a chunk's PNext",
					ErrCorrupt, s, cur, link, a.classes[c].spec.Name, a.sb+sbSize, ar.Reserved())
			}
			switch {
			case a.freeHead(c, s) == cur:
				// pfree completed; only the log reclaim was lost.
			case ar.ReadPtr(link) == cur:
				// Crash before the unlink persisted: redo unlink, then pfree.
				ar.WritePtr(link, ar.ReadPtr(cur+8))
				ar.Persist(link, 8)
				a.pushFreeList(c, s, cur, a.freeHead(c, s))
			default:
				// Unlinked but pfree incomplete. Step 1 (cur.PNext =
				// freeHead) is idempotent; step 2 publishes the chunk.
				a.pushFreeList(c, s, cur, a.freeHead(c, s))
			}
			ar.WritePtr(rl+rlCurOff, pmem.Nil)
			ar.Persist(rl+rlCurOff, 8)
		}

		// Transfer log. Armed iff PChunk != 0; the slot index is the
		// destination stripe.
		tl := a.tlogAddr(s)
		if chunk := ar.ReadPtr(tl + tlChunkOff); !chunk.IsNil() {
			c := Class(ar.Read8(tl + tlClassOff))
			src := int(ar.Read8(tl + tlSrcOff))
			if int(c) >= len(a.classes) || src > tlSrcFresh {
				return fmt.Errorf("%w: stripe %d transfer log armed with invalid state (class=%d src=%d)",
					ErrCorrupt, s, c, src)
			}
			size := chunkSize(a.classes[c].spec.ObjSize)
			switch {
			case src == tlSrcFresh && int64(chunk)+size > a.arena.Reserved():
				// The reservation itself never became durable; nothing to do.
			case !a.inChunkArea(chunk, c):
				return fmt.Errorf("%w: stripe %d transfer log names chunk %d; want an 8-aligned class %s chunk within the chunk area [%d,%d)",
					ErrCorrupt, s, chunk, a.classes[c].spec.Name, a.sb+sbSize, ar.Reserved())
			case a.head(c, s) == chunk:
				// Fully linked; only the disarm was lost.
			case src != tlSrcFresh && a.freeHead(c, src) == chunk:
				// Free-list pop never became durable; chunk is still free on
				// the source stripe.
			case a.freeHead(c, s) == chunk:
				// An earlier interrupted replay already parked the chunk on
				// the destination's free list; only the disarm was lost.
			default:
				// In limbo between the lists: park it on the destination
				// stripe's free list.
				a.pushFreeList(c, s, chunk, a.freeHead(c, s))
			}
			ar.WritePtr(tl+tlChunkOff, pmem.Nil)
			ar.Persist(tl+tlChunkOff, 8)
		}
	}
	return nil
}
