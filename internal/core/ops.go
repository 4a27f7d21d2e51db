package core

import (
	"bytes"
	"encoding/binary"
	"time"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// optimisticAttempts is how many times a reader retries the lock-free
// protocol before falling back to the shard read lock. Retries only
// happen while a writer is actively mutating the same shard, so a small
// bound suffices; the fallback guarantees progress under a write storm.
const optimisticAttempts = 4

// Put inserts or updates a record (Algorithm 1). Values are 1 to
// MaxValueLen bytes; key and value slices are copied.
func (h *HART) Put(key, value []byte) error {
	if h.obs.timing.Enabled() && h.obs.sample.Hit() {
		start := time.Now()
		err := h.putOp(key, value)
		h.obs.putH.Record(time.Since(start).Nanoseconds())
		return err
	}
	return h.putOp(key, value)
}

// putOp is Put's body, split out so the timed wrapper above pays for a
// clock read only when metrics are enabled.
func (h *HART) putOp(key, value []byte) error {
	if err := h.validateWrite(key, value); err != nil {
		return err
	}
	s, hashKey := h.lockShardW(key, true) // lines 2-5: HashFind / NewART / HashInsert
	artKey := key[len(hashKey):]
	stripe := h.stripeOf(hashKey)
	s.beginWrite()
	var err error
	if leafW, found := s.tree.Load().Get(artKey); found { // line 6: SearchNode
		err = h.update(pmem.Ptr(leafW), value, stripe) // lines 7-8
	} else {
		err = h.insertNew(s, artKey, key, value, stripe) // lines 9-18
	}
	s.endWrite()
	hot := err == nil && h.noteWrite(s, 1)
	s.mu.Unlock()
	if hot {
		h.maybeSplit(hashKey)
	}
	if err == nil {
		h.obs.puts.Add(1)
	}
	return err
}

// insertNew performs Algorithm 1 lines 9-18 under the shard write lock,
// allocating from the shard's allocator stripe. Four ordered persists:
// value, leaf, value bit, leaf bit. Algorithm 1 persists p_value, key and
// key_len separately (six persists), but the only orderings recovery rests
// on are p_value durable before the value bit — so a value committed by a
// torn insert is always found through its dead leaf (Algorithm 2 lines
// 12-16) — and the whole leaf durable before the leaf bit; the leaf's
// fields need no order among themselves because the leaf is dead until
// its bit commits.
func (h *HART) insertNew(s *artShard, artKey, key, value []byte, stripe int) error {
	leaf, err := h.alloc.AllocStripe(classLeaf, stripe) // line 10 (OnReuse repair may run)
	if err != nil {
		return err
	}
	val, err := h.alloc.AllocStripe(h.valueClass(len(value)), stripe) // line 11
	if err != nil {
		h.alloc.Abort(leaf)
		return err
	}

	// Line 12: value = V; persistent(value). Word-wise atomic stores: the
	// slot may be a reused one that a stale optimistic reader is still
	// loading (it will fail seq validation, but the loads race these
	// stores and must not tear).
	h.arena.SetPersistSite("insert.value")
	h.arena.WriteWords(val, value)
	h.arena.Persist(val, len(value))

	// Lines 13, 15, 16: p_value, key and key_len, persisted as one run.
	h.arena.SetPersistSite("insert.leaf")
	h.writeLeaf(leaf, val, key, len(value))
	h.arena.Persist(leaf, lfKey+len(key))

	// Line 14: set and persist the value bit. On failure neither bit is
	// set: release both slots from their volatile in-flight state and
	// scrub the dead leaf's value word, so a later reuse of the leaf slot
	// cannot run the Algorithm 2 repair against whoever owns the value
	// slot by then.
	h.arena.SetPersistSite("insert.value-bit")
	if err := h.alloc.SetBit(val); err != nil {
		h.alloc.Abort(val)
		h.scrubLeaf(leaf)
		h.alloc.Abort(leaf)
		return err
	}

	// Line 17: Insert2Tree — volatile, no persistence needed. The tree is
	// republished by copy-on-write so concurrent lock-free readers only
	// ever traverse immutable nodes; they cannot act on this leaf early
	// because the enclosing seqlock section is still open.
	nu, _, _ := s.tree.Load().CowInsert(artKey, uint64(leaf))
	s.tree.Store(nu)

	// Line 18: set and persist the leaf bit. This is the commit point: a
	// crash anywhere above leaves the leaf bit clear, so the slot reads as
	// free and the value object is reclaimed by onLeafReuse. On failure
	// the insert must unwind completely: unpublish the leaf, release the
	// committed value object, and scrub the dead leaf as above.
	h.arena.SetPersistSite("insert.leaf-bit")
	if err := h.alloc.SetBit(leaf); err != nil {
		rb, _, _ := s.tree.Load().CowDelete(artKey)
		s.tree.Store(rb)
		h.alloc.Release(val)
		h.scrubLeaf(leaf)
		h.alloc.Abort(leaf)
		return err
	}
	h.size.Add(1)
	h.obs.inserts.Add(1)
	return nil
}

// writeLeaf stores a leaf's three fields (not yet persisted) as one run of
// atomic word stores: p_value because a stale optimistic reader may still
// be loading the reused slot (see insertNew), the rest because a neighbour
// leaf's persist flushes — and the tracked arena's shadow copy reads — the
// whole cache line, this leaf's words included. The final partial word is
// zero-padded, which stays inside the leaf's own 40 bytes.
func (h *HART) writeLeaf(leaf, val pmem.Ptr, key []byte, valueLen int) {
	var buf [leafSize]byte
	binary.LittleEndian.PutUint64(buf[lfPValue:], packValue(val, valueLen))
	buf[lfKeyLen] = byte(len(key))
	copy(buf[lfKey:], key)
	h.arena.WriteWords(leaf, buf[:lfKey+len(key)])
}

// scrubLeaf durably clears a dead leaf's value word, so its stale
// reference cannot alias the value slot once that slot belongs to another
// record (the next reuse of the leaf slot would otherwise run the
// Algorithm 2 repair against the new owner's live value).
func (h *HART) scrubLeaf(leaf pmem.Ptr) {
	h.arena.Write8(leaf+lfPValue, 0)
	h.arena.Persist(leaf+lfPValue, 8)
}

// update performs an out-of-place value update under the shard write
// lock: Algorithm 3's logged protocol by default, or the paper's measured
// unlogged pointer swing when Options.UnloggedUpdates is set.
//
// The micro-log is a redo log with one commit record (see ULog.Commit):
// once value and record are durable the update will complete, here or in
// recovery's replay (set new bit, swing, clear old bit — each idempotent),
// so arming the log needs no persist of its own. Six persists: value, log,
// value bit, swing, old bit, reclaim.
//
// The old value's slot stays in flight until the log is reclaimed: were it
// allocatable while the record is armed, a crash would replay "clear the
// old bit" onto whatever a concurrent writer on the same stripe had
// meanwhile committed there.
func (h *HART) update(leaf pmem.Ptr, value []byte, stripe int) error {
	if h.opts.UnloggedUpdates {
		return h.updateUnlogged(leaf, value, stripe)
	}
	ulog := h.getULog(stripe) // line 1
	oldV, _ := unpackValue(h.arena.Read8(leaf + lfPValue))

	newV, err := h.alloc.AllocStripe(h.valueClass(len(value)), stripe) // line 4
	if err != nil {
		ulog.Reclaim()
		return err
	}

	// Line 5: new_value = V; persistent(new_value). Atomic word stores —
	// see insertNew.
	h.arena.SetPersistSite("update.value")
	h.arena.WriteWords(newV, value)
	h.arena.Persist(newV, len(value))

	// Lines 2, 3, 6: the log record. PNewV is the packed word, so it also
	// records the value length and recovery can rebuild leaf.p_value
	// verbatim.
	h.arena.SetPersistSite("update.log")
	newW := packValue(newV, len(value))
	ulog.Commit(leaf, oldV, pmem.Ptr(newW))

	// Line 7: set the bit for the new value. On failure the new object's
	// bit is clear (nothing durable to undo), but the slot must leave its
	// volatile in-flight state and the armed log must be reclaimed, or the
	// failed update strands a permanently-busy ulog slot.
	h.arena.SetPersistSite("update.value-bit")
	if err := h.alloc.SetBit(newV); err != nil {
		h.alloc.Abort(newV)
		ulog.Reclaim()
		return err
	}

	// Line 8: swing the leaf's value pointer (single atomic 8-byte store).
	h.arena.SetPersistSite("update.swing")
	h.arena.Write8(leaf+lfPValue, newW)
	h.arena.Persist(leaf+lfPValue, 8)

	// Line 9: clear the old value's bit. The update committed at the
	// pointer swing, so a failure here must not leave the log armed —
	// reclaim it and surface the error (the old object's bit leaks until
	// fsck, which is exactly what Check reports).
	if !oldV.IsNil() {
		h.arena.SetPersistSite("update.release-old")
		if err := h.alloc.Retire(oldV); err != nil {
			ulog.Reclaim()
			return err
		}
	}

	h.arena.SetPersistSite("update.reclaim")
	ulog.Reclaim() // line 11

	// Line 10, after line 11: only now may the old slot be reallocated;
	// its chunk is recycled if that emptied it.
	if !oldV.IsNil() {
		h.arena.SetPersistSite("update.recycle-old")
		if err := h.alloc.Free(oldV); err != nil {
			return err
		}
	}
	h.obs.updates.Add(1)
	return nil
}

// Update overwrites the value of an existing key (Algorithm 3); it fails
// with ErrNotFound for absent keys. Put both inserts and updates; Update
// exists because the paper's update experiments never insert.
func (h *HART) Update(key, value []byte) error {
	if err := h.validateWrite(key, value); err != nil {
		return err
	}
	s, hashKey := h.lockShardW(key, false)
	if s == nil {
		return ErrNotFound
	}
	artKey := key[len(hashKey):]
	s.beginWrite()
	var err error
	if leafW, found := s.tree.Load().Get(artKey); found {
		err = h.update(pmem.Ptr(leafW), value, h.stripeOf(hashKey))
	} else {
		err = ErrNotFound
	}
	s.endWrite()
	hot := err == nil && h.noteWrite(s, 1)
	s.mu.Unlock()
	if hot {
		h.maybeSplit(hashKey)
	}
	return err
}

// Get looks a key up (Algorithm 4) and returns a copy of its value.
//
// The fast path is lock-free: it resolves the shard through the current
// directory snapshot, walks the shard's published (immutable) tree, and
// validates the PM-side reads against the shard seqlock, retrying on
// interference and falling back to the shard read lock after
// optimisticAttempts tries. See DESIGN.md, "Read-path concurrency".
//
// The destination buffer is a constant-capacity stack allocation handed
// to GetInto, whose dst parameter leaks only to its result: escape
// analysis therefore heap-allocates it only when the caller lets the
// returned value escape, making the common look-up-and-inspect pattern
// allocation-free. Values longer than MaxValueLen (possible only with a
// custom ValueClasses table) fall back to GetInto's internal growth.
func (h *HART) Get(key []byte) ([]byte, bool) {
	return h.GetInto(key, make([]byte, 0, MaxValueLen))
}

// GetInto is Get with a caller-supplied destination buffer: the value is
// copied into dst (grown only if its capacity is short) and the filled
// prefix returned, so repeated lookups with a reused buffer perform no
// heap allocation. A nil return with ok=true cannot happen; on ok=false
// the buffer contents are unspecified.
func (h *HART) GetInto(key, dst []byte) ([]byte, bool) {
	if h.obs.timing.Enabled() && h.obs.sample.Hit() {
		start := time.Now()
		v, ok := h.getInto(key, dst)
		h.obs.getH.Record(time.Since(start).Nanoseconds())
		return v, ok
	}
	return h.getInto(key, dst)
}

// getInto is GetInto's body; the wrapper above adds the gated latency
// histogram. Counters here are always-on: one striped atomic add per
// lookup, plus one per retry/fallback, which only contended reads pay.
func (h *HART) getInto(key, dst []byte) ([]byte, bool) {
	if h.validate(key, nil) != nil {
		return nil, false
	}
	h.obs.gets.Add(1)
	if !h.opts.LockedReads {
		for i := 0; i < optimisticAttempts; i++ {
			v, ok, conclusive := h.readOptimistic(key, dst, true)
			if conclusive {
				if !ok {
					h.obs.getMisses.Add(1)
				}
				return v, ok
			}
			h.obs.seqRetries.Add(1)
		}
		h.obs.lockedFallbacks.Add(1)
	}
	v, ok := h.lockedGet(key, dst, true)
	if !ok {
		h.obs.getMisses.Add(1)
	}
	return v, ok
}

// Contains reports whether key is present. Unlike Get it neither copies
// nor allocates: presence is decided from the leaf bit and the packed
// pValue word alone.
func (h *HART) Contains(key []byte) bool {
	if h.validate(key, nil) != nil {
		return false
	}
	if !h.opts.LockedReads {
		for i := 0; i < optimisticAttempts; i++ {
			_, ok, conclusive := h.readOptimistic(key, nil, false)
			if conclusive {
				return ok
			}
		}
	}
	_, ok := h.lockedGet(key, nil, false)
	return ok
}

// readOptimistic runs one attempt of the lock-free Algorithm 4. It
// reports (value, found, conclusive); conclusive=false means a writer
// interfered and the attempt tells us nothing. The protocol:
//
//  1. Load the current directory snapshot, route the key through its
//     geometry and resolve the shard. No shard → conclusively absent
//     (the snapshot is the linearization point; snapshots — table and
//     split set together — are immutable).
//  2. Load the shard seqlock. Odd → a writer is mid-section; retry.
//  3. Load the published tree and search it. The walk touches only
//     immutable DRAM nodes, so it needs no validation; not-found is
//     conclusive if seq is still unchanged (the snapshot was current).
//  4. Validate the leaf bit, read the packed pValue word, and copy the
//     value words out of PM — all atomic word loads, racing at worst
//     with atomic word stores from writers reusing the slot.
//  5. Re-load seq. Unchanged-and-even proves no writer entered the
//     shard between steps 2 and 5, so every PM word read belongs to one
//     consistent committed state.
func (h *HART) readOptimistic(key, dst []byte, needValue bool) (v []byte, found, conclusive bool) {
	d := h.dir.Load()
	hashKey := d.route(key, h.opts.HashKeyLen)
	s, ok := d.tab.Get(hashKey)
	if !ok {
		return nil, false, true
	}
	artKey := key[len(hashKey):]
	if s.pending.Load() != nil {
		// Lazily recovered shard whose ART is not built yet: the published
		// tree is empty, so a miss would be wrong. Inconclusive — the
		// locked fallback performs the first-touch build.
		return nil, false, false
	}
	v0 := s.seq.Load()
	if v0&1 != 0 {
		return nil, false, false
	}
	leafW, ok := s.tree.Load().Get(artKey)
	if !ok {
		return nil, false, s.seq.Load() == v0
	}
	leaf := pmem.Ptr(leafW)
	// Algorithm 4's leaf-bit validation is subsumed here by the seqlock:
	// a leaf's tree membership and its bit only ever change together
	// inside one write section (insertNew sets the bit before its section
	// closes, Delete clears it in the section that unpublishes the leaf),
	// so a tree observed in a quiescent window — seq even and unchanged
	// across the whole read — holds committed leaves only, and the
	// explicit BitIsSet of the locked path would be redundant PM traffic.
	// A stale leaf read through an interfered window is discarded by the
	// seq check below before it can be returned.
	vp, n := unpackValue(h.arena.Read8(leaf + lfPValue))
	if vp.IsNil() || n == 0 || n > h.maxValueLen() {
		return nil, false, s.seq.Load() == v0
	}
	if needValue {
		if cap(dst) >= n {
			v = dst[:n]
		} else {
			v = make([]byte, n)
		}
		h.arena.ReadWords(vp, v)
	}
	if s.seq.Load() != v0 {
		return nil, false, false
	}
	return v, true, true
}

// lockedGet is Algorithm 4 under the shard read lock: the fallback for
// readers that kept losing seqlock races, and the whole read path in
// LockedReads mode.
func (h *HART) lockedGet(key, dst []byte, needValue bool) ([]byte, bool) {
	s, hashKey := h.lockShardR(key) // lines 1-2
	if s == nil {
		return nil, false // lines 3-4
	}
	defer s.mu.RUnlock()
	artKey := key[len(hashKey):]
	leafW, found := s.tree.Load().Get(artKey) // line 5
	if !found {
		return nil, false // lines 6-7
	}
	leaf := pmem.Ptr(leafW)
	// Lines 9-12: validate the leaf against its persistent bit before
	// trusting its value pointer.
	if set, err := h.alloc.BitIsSet(leaf); err != nil || !set {
		return nil, false
	}
	vp, n := unpackValue(h.arena.Read8(leaf + lfPValue))
	if vp.IsNil() || n == 0 || n > h.maxValueLen() {
		return nil, false
	}
	if !needValue {
		return nil, true
	}
	var v []byte
	if cap(dst) >= n {
		v = dst[:n]
	} else {
		v = make([]byte, n)
	}
	h.arena.ReadAt(vp, v)
	return v, true
}

// Delete removes a key (Algorithm 5). A successful delete under the
// elastic directory additionally nominates the shard's split group for a
// merge — after the shard lock is released, since merging locks whole
// groups.
func (h *HART) Delete(key []byte) error {
	if h.obs.timing.Enabled() {
		start := time.Now()
		err := h.deleteOp(key)
		h.obs.deleteH.Record(time.Since(start).Nanoseconds())
		return err
	}
	return h.deleteOp(key)
}

// deleteOp is Delete's body behind the gated timing wrapper above.
func (h *HART) deleteOp(key []byte) error {
	if err := h.validate(key, nil); err != nil {
		return err
	}
	hashKey, err := h.deleteLocked(key)
	if hashKey != nil {
		h.obs.deletes.Add(1)
		h.maybeMerge(hashKey)
	} else if err == ErrNotFound {
		h.obs.deleteMisses.Add(1)
	}
	return err
}

// deleteLocked is Delete's under-the-shard-lock body. The returned
// hashKey is non-nil exactly when the record was removed (the commit
// point passed, whatever later cleanup reported).
func (h *HART) deleteLocked(key []byte) ([]byte, error) {
	s, hashKey := h.lockShardW(key, false) // lines 1-2
	if s == nil {
		return nil, ErrNotFound // lines 3-4
	}
	artKey := key[len(hashKey):]
	defer s.mu.Unlock()
	s.beginWrite()
	defer s.endWrite()

	leafW, found := s.tree.Load().Get(artKey) // line 5
	if !found {
		return nil, ErrNotFound // lines 6-7
	}
	leaf := pmem.Ptr(leafW)

	// Line 9: remove from the (volatile) tree first; a crash after this
	// point leaves the PM bits to the reset/repair protocol below.
	nu, _, _ := s.tree.Load().CowDelete(artKey)
	s.tree.Store(nu)

	val, _ := unpackValue(h.arena.Read8(leaf + lfPValue)) // line 10

	// Line 11: reset and persist the leaf bit. From here the leaf is dead
	// even across a crash; its stale p_value drives onLeafReuse repair if
	// the value-bit reset below never lands. The slot is retired, not
	// freed: it stays unallocatable until the scrub below is durable, or a
	// writer on the same allocator stripe could be handed it in between
	// and have its fresh p_value zeroed by that scrub (and its onLeafReuse
	// would clear the value's bit a second time, after this delete's
	// Release, possibly under a new owner). On failure the record is still
	// fully committed on PM, so republish it and report the error —
	// dropping it from the tree alone would lose the key for readers while
	// recovery would resurrect it.
	h.arena.SetPersistSite("delete.leaf-bit")
	if err := h.alloc.Retire(leaf); err != nil {
		rb, _, _ := s.tree.Load().CowInsert(artKey, uint64(leaf))
		s.tree.Store(rb)
		return nil, err
	}

	// The leaf-bit reset above is the commit point: from here the delete
	// has happened, so later failures must not abandon the remaining
	// cleanup or the size/shard accounting — finish everything and report
	// the first error (any leaked value bit is then visible to Check).
	var firstErr error

	// Lines 12-13: reset the value bit and recycle its chunk if emptied.
	h.arena.SetPersistSite("delete.value-bit")
	if !val.IsNil() {
		if err := h.alloc.Release(val); err != nil {
			firstErr = err
		}
	}

	// Hardening beyond Algorithm 5: scrub the dead leaf (see scrubLeaf). A
	// crash before this store lands is repaired by the recovery sweep (see
	// recover).
	h.arena.SetPersistSite("delete.scrub-pvalue")
	h.scrubLeaf(leaf)

	// Line 14: hand the leaf slot back and recycle its chunk if it
	// emptied.
	h.arena.SetPersistSite("delete.recycle")
	if err := h.alloc.Free(leaf); err != nil && firstErr == nil {
		firstErr = err
	}

	h.size.Add(-1)
	// Lines 15-16: free the ART if it became empty.
	h.removeShardIfEmpty(hashKey, s)
	return hashKey, firstErr
}

// GetLeaf returns the PM address of a key's leaf (tests and fsck).
func (h *HART) GetLeaf(key []byte) (pmem.Ptr, bool) {
	s, hashKey := h.lockShardR(key)
	if s == nil {
		return pmem.Nil, false
	}
	defer s.mu.RUnlock()
	artKey := key[len(hashKey):]
	leafW, found := s.tree.Load().Get(artKey)
	if !found {
		return pmem.Nil, false
	}
	leaf := pmem.Ptr(leafW)
	if !bytes.Equal(h.leafKey(leaf), key) {
		return pmem.Nil, false
	}
	return leaf, true
}

// updateUnlogged is the update mechanism the paper's evaluation ran
// (Section IV.B), shared in structure with WOART and ART+CoW: write the
// new value object, commit its bit, swing the leaf's value word
// atomically, release the old object. Four persists instead of the logged
// protocol's six; crash exposure is the old object in the final window,
// reclaimed by the recovery orphan sweep.
func (h *HART) updateUnlogged(leaf pmem.Ptr, value []byte, stripe int) error {
	oldW := h.arena.Read8(leaf + lfPValue)
	oldV, _ := unpackValue(oldW)

	newV, err := h.alloc.AllocStripe(h.valueClass(len(value)), stripe)
	if err != nil {
		return err
	}
	h.arena.SetPersistSite("uupdate.value")
	h.arena.WriteWords(newV, value)
	h.arena.Persist(newV, len(value))
	h.arena.SetPersistSite("uupdate.value-bit")
	if err := h.alloc.SetBit(newV); err != nil {
		h.alloc.Abort(newV)
		return err
	}

	// The atomic pointer swing is the commit point ("updated as the last
	// step to ensure consistency").
	h.arena.SetPersistSite("uupdate.swing")
	h.arena.Write8(leaf+lfPValue, packValue(newV, len(value)))
	h.arena.Persist(leaf+lfPValue, 8)

	h.arena.SetPersistSite("uupdate.release-old")
	if !oldV.IsNil() {
		if err := h.alloc.Release(oldV); err != nil {
			return err
		}
	}
	h.obs.updates.Add(1)
	return nil
}
