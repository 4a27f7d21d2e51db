package epalloc

import (
	"fmt"
	"math/bits"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// AllocStripe implements EPMalloc (Algorithm 2): it returns a free object
// slot of the class from the given stripe — HART's write path maps each
// shard to a stripe, so writers to different shards do not share a lock —
// allocating (or stealing from a sibling stripe) a new memory
// chunk if no chunk of the stripe has room. The slot's persistent bit is
// NOT set — the caller commits the object with SetBit once it is fully
// initialised and linked into the index (Algorithm 1 line 18). Until then
// the slot is reserved only in volatile memory, so a crash makes it
// allocatable again, which is exactly the leak-prevention property of
// Section III.A.6. A reused slot is handed out as its last owner left it.
func (a *Allocator) AllocStripe(c Class, stripe int) (pmem.Ptr, error) {
	if a.failAlloc.tripped() {
		return pmem.Nil, ErrInjected
	}
	stripe &= NumStripes - 1
	cs := &a.classes[c]
	ss := &cs.stripes[stripe]
	for {
		ss.mu.Lock()
		if obj, ok := a.takeFromStripe(ss); ok {
			ss.mu.Unlock()
			return obj, nil
		}
		ss.mu.Unlock()
		// No chunk of the stripe has a free slot: obtain one (free-list
		// reuse, cross-stripe steal, or fresh reservation) and retry.
		if _, err := a.allocChunk(c, stripe); err != nil {
			return pmem.Nil, err
		}
	}
}

// takeFromStripe claims one free slot from the stripe's avail queue.
// Caller holds the stripe lock.
func (a *Allocator) takeFromStripe(ss *stripeState) (pmem.Ptr, bool) {
	for len(ss.avail) > 0 {
		m := ss.avail[len(ss.avail)-1]
		if obj, ok := a.takeSlot(m); ok {
			return obj, true
		}
		m.inAvail = false
		ss.avail = ss.avail[:len(ss.avail)-1]
	}
	return pmem.Nil, false
}

// takeSlot claims one free slot of the chunk, preferring the persistent
// next-free hint. A slot is free when neither its persistent bit nor its
// volatile in-flight bit is set. Returns false if the chunk is full.
// Caller holds the stripe lock.
func (a *Allocator) takeSlot(m *chunkMeta) (pmem.Ptr, bool) {
	h := header(m.hdr.Load())
	freeMask := ^(h.bitmap() | m.inFlight) & bitmapMask
	if freeMask == 0 {
		return pmem.Nil, false
	}
	idx := h.nextFree()
	if idx >= ObjectsPerChunk || freeMask&(1<<uint(idx)) == 0 {
		idx = bits.TrailingZeros64(freeMask)
	}
	m.inFlight |= 1 << uint(idx)
	return a.SlotAddr(m.start, m.class, idx), true
}

// queueAvail puts the chunk on its stripe's avail queue unless it is there
// already. Caller holds the stripe lock.
func (ss *stripeState) queueAvail(m *chunkMeta) {
	if !m.inAvail {
		m.inAvail = true
		ss.avail = append(ss.avail, m)
	}
}

// allocChunk obtains a chunk for the stripe: a recycled chunk from the
// stripe's own free list, else one stolen from a sibling stripe's free
// list (the cross-stripe rebalance; the only path taking two stripe locks,
// always in ascending index order), else a fresh arena reservation under
// chunkMu. The whole transition runs under the destination stripe's
// chunk-transfer micro-log so a crash at any persist boundary neither
// leaks the chunk nor corrupts any list (see recoverLogs).
func (a *Allocator) allocChunk(c Class, dst int) (pmem.Ptr, error) {
	cs := &a.classes[c]
	dstSS := &cs.stripes[dst]

	// Own free list first.
	dstSS.mu.Lock()
	if dstSS.freeHead.Load() != nil {
		defer dstSS.mu.Unlock()
		a.metrics.ChunkReuses.AddStripe(dst, 1)
		return a.transferLocked(c, dst, dst, false)
	}
	dstSS.mu.Unlock()

	// Steal from a sibling stripe. The unlocked freeHead peek is merely a
	// hint; ownership is re-checked under both locks.
	for off := 1; off < NumStripes; off++ {
		src := (dst + off) & (NumStripes - 1)
		if cs.stripes[src].freeHead.Load() == nil {
			continue
		}
		lo, hi := &cs.stripes[min(src, dst)], &cs.stripes[max(src, dst)]
		lo.mu.Lock()
		hi.mu.Lock()
		if cs.stripes[src].freeHead.Load() == nil {
			hi.mu.Unlock()
			lo.mu.Unlock()
			continue
		}
		chunk, err := a.transferLocked(c, src, dst, false)
		hi.mu.Unlock()
		lo.mu.Unlock()
		if err == nil {
			a.metrics.Steals.AddStripe(dst, 1)
			if a.events != nil {
				a.events.Emit("alloc.steal", cs.spec.Name, uint64(src), uint64(dst))
			}
		}
		return chunk, err
	}

	// Whole class dry: reserve fresh arena space. chunkMu serialises
	// reservations so the transfer log's address prediction is exact.
	dstSS.mu.Lock()
	defer dstSS.mu.Unlock()
	a.chunkMu.Lock()
	defer a.chunkMu.Unlock()
	a.metrics.FreshChunks.AddStripe(dst, 1)
	return a.transferLocked(c, tlSrcFresh, dst, true)
}

// transferLocked moves one chunk onto the destination stripe's chunk list
// under the destination's transfer log: a free-list pop from stripe src
// (src may equal dst), or a fresh arena reservation when fresh is set.
// Caller holds dst's stripe lock, src's stripe lock when src != dst, and
// chunkMu when fresh. The lists' heads and links come from their DRAM
// mirrors, so the transfer loads nothing from PM.
func (a *Allocator) transferLocked(c Class, src, dst int, fresh bool) (pmem.Ptr, error) {
	ar := a.arena
	dstSS := &a.classes[c].stripes[dst]
	var chunk pmem.Ptr
	var m *chunkMeta
	if fresh {
		// Predict the reservation address so the transfer log can be armed
		// *before* the bump cursor durably advances; a crash between the
		// two then cannot leak the chunk. chunkMu serialises reservations,
		// so the prediction is exact.
		chunk = pmem.Ptr((ar.Reserved() + 7) &^ 7)
	} else {
		m = a.classes[c].stripes[src].freeHead.Load()
		chunk = m.start
	}

	// Arm the transfer log: "chunk is moving onto class c, stripe dst's
	// chunk list, taken from stripe src's free list (or fresh)". Class and
	// source first, chunk pointer last — the slot is armed iff PChunk != 0.
	t := a.tlogAddr(dst)
	ar.Write8(t+tlClassOff, uint64(c))
	ar.Write8(t+tlSrcOff, uint64(src))
	ar.Persist(t+tlClassOff, 16)
	ar.WritePtr(t+tlChunkOff, chunk)
	ar.Persist(t+tlChunkOff, 8)

	if fresh {
		size := chunkSize(a.classes[c].spec.ObjSize)
		got, err := ar.Reserve(size, 8)
		if err != nil {
			ar.WritePtr(t+tlChunkOff, pmem.Nil)
			ar.Persist(t+tlChunkOff, 8)
			return pmem.Nil, err
		}
		if got != chunk {
			return pmem.Nil, fmt.Errorf("%w: predicted chunk %d, reserved %d", ErrCorrupt, chunk, got)
		}
		if m, err = a.fileChunk(chunk, c, dst); err != nil {
			return pmem.Nil, err
		}
	} else {
		// Unlink from the source free list.
		ar.WritePtr(a.freeHeadAddr(c, src), m.next.ptr())
		ar.Persist(a.freeHeadAddr(c, src), 8)
		a.classes[c].stripes[src].freeHead.Store(m.next)
	}

	// Initialise: empty bitmap, hint 0, available; PNext = current head.
	ar.Write8(chunk, uint64(makeHeader(0, 0, fullAvailable)))
	ar.WritePtr(chunk+8, dstSS.head.ptr())
	ar.Persist(chunk, 16)
	m.next = dstSS.head

	// Link at the destination head, then disarm the log.
	ar.WritePtr(a.headAddr(c, dst), chunk)
	ar.Persist(a.headAddr(c, dst), 8)
	if dstSS.head != nil {
		dstSS.head.prev = m
	}
	dstSS.head = m
	ar.WritePtr(t+tlChunkOff, pmem.Nil)
	ar.Persist(t+tlChunkOff, 8)

	// Volatile bookkeeping: the chunk now offers 56 slots on dst.
	m.stripe.Store(int32(dst))
	m.hdr.Store(uint64(makeHeader(0, 0, fullAvailable)))
	m.inFlight = 0
	dstSS.queueAvail(m)
	return chunk, nil
}

// SetBit commits an allocated object: it durably marks the slot live and
// refreshes the next-free hint and full indicator. The header is a single
// 8-byte word, so the commit is failure-atomic (paper Fig. 2).
func (a *Allocator) SetBit(obj pmem.Ptr) error {
	if a.failSetBit.tripped() {
		return ErrInjected
	}
	m, bit, err := a.slotOf(obj)
	if err != nil {
		return err
	}
	ss := a.lockChunk(m)
	defer ss.mu.Unlock()
	a.writeHeader(m, packHeader(header(m.hdr.Load()).bitmap()|bit))
	m.inFlight &^= bit
	return nil
}

// Release durably clears the slot's bit, makes the slot allocatable and,
// if that empties its chunk, recycles the chunk (Algorithm 5 lines 11-14 /
// Algorithm 6), all under one stripe-lock acquisition: for a caller with
// no write and no log record outstanding against the slot — a delete, the
// insert's unwind, recovery. One that still has either uses Retire. The
// recycle is lenient (a chunk already off its list is left alone), so an
// error means the bit was not cleared.
func (a *Allocator) Release(obj pmem.Ptr) error {
	return a.clearBit(obj, false)
}

// Retire durably clears the slot's bit but keeps the slot in flight — not
// allocatable — until the caller hands it back with Free. A logged update
// retires the old value before reclaiming its micro-log: handing the slot
// to a concurrent writer on the same stripe any earlier lets a crash
// replay of the log clear the new owner's bit.
func (a *Allocator) Retire(obj pmem.Ptr) error {
	return a.clearBit(obj, true)
}

// clearBit implements Release and Retire: one header persist clearing
// obj's bit, after which the slot is either held in flight or offered for
// allocation with its chunk recycled if it emptied.
func (a *Allocator) clearBit(obj pmem.Ptr, hold bool) error {
	if a.failClearBit.tripped() {
		return ErrInjected
	}
	m, bit, err := a.slotOf(obj)
	if err != nil {
		return err
	}
	ss := a.lockChunk(m)
	defer ss.mu.Unlock()
	a.writeHeader(m, packHeader(header(m.hdr.Load()).bitmap()&^bit))
	if hold {
		m.inFlight |= bit
		return nil
	}
	m.inFlight &^= bit
	ss.queueAvail(m)
	return a.recycleLocked(m, ss, true)
}

// Free hands back a slot that is in flight with its bit clear — retired by
// Retire, or allocated and never committed — making it allocatable again
// and recycling its chunk if that left the chunk empty, in one stripe-lock
// acquisition. Nothing is written to PM unless the chunk is recycled.
func (a *Allocator) Free(obj pmem.Ptr) error {
	m, bit, err := a.slotOf(obj)
	if err != nil {
		return err
	}
	ss := a.lockChunk(m)
	defer ss.mu.Unlock()
	m.inFlight &^= bit
	ss.queueAvail(m)
	return a.recycleLocked(m, ss, false)
}

// BitIsSet reports whether the slot's persistent bit is set (the validity
// check search performs on leaves, Algorithm 4 line 9). Lock-free, served
// from the header mirror: a bit reads as set only once it is durable.
func (a *Allocator) BitIsSet(obj pmem.Ptr) (bool, error) {
	m, bit, err := a.slotOf(obj)
	if err != nil {
		return false, err
	}
	return header(m.hdr.Load()).bitmap()&bit != 0, nil
}

// packHeader derives hint and indicator from a bitmap and packs the header.
func packHeader(bitmap uint64) header {
	freeMask := ^bitmap & bitmapMask
	if freeMask == 0 {
		return makeHeader(bitmap, 0, fullFull)
	}
	return makeHeader(bitmap, bits.TrailingZeros64(freeMask), fullAvailable)
}
