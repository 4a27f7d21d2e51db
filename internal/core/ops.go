package core

import (
	"bytes"
	"encoding/binary"
	"time"

	"github.com/casl-sdsu/hart/internal/epalloc"
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
	s.beginWrite()
	err := h.putLocked(s, key[len(hashKey):], key, value, epalloc.StripeFor(hashKey))
	s.endWrite()
	if err == nil {
		s.ops.Add(1)
	}
	s.mu.Unlock()
	if err == nil {
		h.obs.puts.Add(1)
	}
	return err
}

// putLocked inserts or updates one record — Algorithm 1 from line 6 —
// in the shard s, the one protocol Put and PutBatch share. Caller holds
// the shard write lock and an open seqlock section.
func (h *HART) putLocked(s *artShard, artKey, key, value []byte, stripe int) error {
	if w, found := s.root.Get(artKey); found { // line 6: SearchNode
		return h.updateAt(s, artKey, leafRef(w), value, stripe) // lines 7-8
	}
	return h.insertNew(s, artKey, key, value, stripe) // lines 9-18
}

// insertNew performs Algorithm 1 lines 9-18 under the shard write lock,
// allocating from the shard's allocator stripe, the leaf from the class
// its key's length picks (leafClassFor). One protocol per shape:
//
// Inline (value of at most MaxInlineLen bytes), two ordered persists: leaf,
// leaf bit. The record is one object; it is dead until its bit commits.
//
// Out of line, four: value, leaf, value bit, leaf bit. Algorithm 1 persists
// p_value, key and key_len separately (six persists), but the only
// orderings recovery rests on are the value object committed, and the whole
// leaf durable, before the leaf bit; the leaf's fields need no order among
// themselves because the leaf is dead until its bit commits. A value
// committed by a torn insert is referenced by no live leaf, so recovery's
// orphan sweep reclaims it (Algorithm 2 lines 12-16 find it through the
// dead leaf's p_value instead, which here is never read).
func (h *HART) insertNew(s *artShard, artKey, key, value []byte, stripe int) error {
	leaf, err := h.alloc.AllocStripe(leafClassFor(len(key)), stripe) // line 10
	if err != nil {
		return err
	}
	shape, word0, val := valueShape(len(value)), uint64(0), pmem.Nil
	if shape != 0 {
		word0 = inlineWord(value)
	} else {
		val, err = h.alloc.AllocStripe(classValue16, stripe) // line 11
		if err != nil {
			h.alloc.Free(leaf)
			return err
		}
		word0 = packValue(val, len(value))

		// Line 12: value = V; persistent(value). Word-wise atomic stores:
		// the slot may be a reused one that a stale optimistic reader is
		// still loading (it will fail seq validation, but the loads race
		// these stores and must not tear).
		h.arena.SetPersistSite("insert.value")
		h.arena.WriteWords(val, value)
		h.arena.Persist(val, len(value))
	}

	// Lines 13, 15, 16: word 0, key and key_len (and the shape byte),
	// persisted as one run.
	h.arena.SetPersistSite("insert.leaf")
	h.writeLeaf(leaf, word0, shape, key)
	h.arena.Persist(leaf, lfKey+len(key))

	// Line 14: set and persist the value bit. On failure neither bit is
	// set: release both slots from their volatile in-flight state. The
	// dead leaf keeps its word 0, which nothing reads.
	if !val.IsNil() {
		h.arena.SetPersistSite("insert.value-bit")
		if err := h.alloc.SetBit(val); err != nil {
			h.alloc.Free(val)
			h.alloc.Free(leaf)
			return err
		}
	}

	// Line 17: Insert2Tree — volatile, no persistence needed. Lock-free
	// readers may see the leaf at once, but cannot act on it early: the
	// enclosing seqlock section is still open.
	s.root.Insert(artKey, uint64(makeLeafRef(leaf, shape)))

	// Line 18: set and persist the leaf bit. This is the commit point: a
	// crash anywhere above leaves the leaf bit clear, so the slot reads as
	// free, and a committed value object that no live leaf references is
	// reclaimed by recovery's orphan sweep. On failure the insert must
	// unwind completely: unpublish the leaf and release the committed value
	// object.
	h.arena.SetPersistSite("insert.leaf-bit")
	if err := h.alloc.SetBit(leaf); err != nil {
		s.root.Delete(artKey)
		if !val.IsNil() {
			h.alloc.Release(val)
		}
		h.alloc.Free(leaf)
		return err
	}
	h.size.Add(1)
	h.obs.inserts.Add(1)
	return nil
}

// writeLeaf stores a leaf's fields (not yet persisted) as one run of atomic
// word stores: word 0 because a stale optimistic reader may still be
// loading the reused slot (see insertNew), the rest because a neighbour
// leaf's persist flushes — and the tracked arena's shadow copy reads — the
// whole cache line, this leaf's words included. The final partial word is
// zero-padded, which stays inside the leaf's own slot: the key's class
// (leafClassFor) ends the slot at a word boundary at or past the key.
func (h *HART) writeLeaf(leaf pmem.Ptr, word0 uint64, shape int, key []byte) {
	var buf [leaf40Size]byte
	binary.LittleEndian.PutUint64(buf[lfWord0:], word0)
	buf[lfKeyLen] = byte(len(key))
	buf[lfShape] = byte(shape)
	copy(buf[lfKey:], key)
	h.arena.WriteWords(leaf, buf[:lfKey+len(key)])
}

// swing gives a live leaf its new word 0 by one failure-atomic store and
// persists it — the commit point of an update that keeps the record's
// shape.
func (h *HART) swing(leaf pmem.Ptr, word0 uint64) {
	h.arena.Write8(leaf+lfWord0, word0)
	h.arena.Persist(leaf+lfWord0, 8)
}

// reshape is the swing of an update that changes the record's shape: the
// shape byte is rewritten with word 0 and both are persisted by one call.
// The two words are not assumed to become durable together, which is why
// this happens only under an armed update log, in updateLogged and in the
// log's replay (recoverUpdate).
func (h *HART) reshape(leaf pmem.Ptr, word0 uint64, shape int) {
	h.arena.Write8(leaf+lfWord0, word0)
	hdr := h.arena.Read8(leaf + lfKeyLen)
	h.arena.Write8(leaf+lfKeyLen, hdr&^(0xff<<8)|uint64(shape)<<8)
	h.arena.Persist(leaf, lfKey)
}

// updateAt updates the record behind ref and, if that changed its shape,
// republishes its ref in the shard's tree. Caller holds the shard write
// lock and an open seqlock section.
func (h *HART) updateAt(s *artShard, artKey []byte, ref leafRef, value []byte, stripe int) error {
	nref, err := h.update(ref, value, stripe)
	if nref != ref {
		s.root.Insert(artKey, uint64(nref))
	}
	return err
}

// update replaces a record's value under the shard write lock, by the one
// protocol its old and new shapes select, and returns the record's ref as
// it stands afterwards — changed exactly when the shape did, error or not,
// and then the caller must republish it.
//
//   - Inline to inline of the same length: one atomic store of word 0 and
//     one persist. Failure-atomic by width — the pointer swing the paper
//     measured (Section IV.B), with nothing behind the pointer to leak.
//   - Everything else — value object to value object, and any change of
//     shape, which has two words to rewrite: Algorithm 3's logged
//     protocol (updateLogged).
func (h *HART) update(ref leafRef, value []byte, stripe int) (leafRef, error) {
	if old := ref.shape(); old != 0 && old == len(value) {
		h.arena.SetPersistSite("update.inline")
		h.swing(ref.ptr(), inlineWord(value))
		h.obs.updates.Add(1)
		return ref, nil
	}
	return h.updateLogged(ref, value, stripe)
}

// updateLogged is Algorithm 3, generalised from "swing p_value to a new
// value object" to "give the leaf a new word 0 and shape byte": the new
// value is a fresh object (persisted and committed as in Algorithm 3) or
// sits in the word itself, and the old one is an object to release or was
// in the word and is simply overwritten.
//
// The micro-log is a redo log with one commit record (see ULog.Commit):
// once the record — and the new value object, if there is one — is
// durable the update will complete, here or in recovery's replay (set new
// bit, swing, clear old bit — each idempotent), so arming the log needs no
// persist of its own. Between value objects that is six persists: value,
// log, value bit, swing, old bit, reclaim; a side that is inline drops its
// own two.
//
// The old value's slot stays in flight until the log is reclaimed: were it
// allocatable while the record is armed, a crash would replay "clear the
// old bit" onto whatever a concurrent writer on the same stripe had
// meanwhile committed there.
func (h *HART) updateLogged(ref leafRef, value []byte, stripe int) (leafRef, error) {
	leaf := ref.ptr()
	ulog := h.alloc.GetUpdateLog(stripe) // line 1
	var oldV pmem.Ptr
	if ref.shape() == 0 {
		oldV, _ = unpackValue(h.arena.Read8(leaf + lfWord0))
	}

	shape, word0, newV := valueShape(len(value)), uint64(0), pmem.Nil
	if shape != 0 {
		word0 = inlineWord(value)
	} else {
		var err error
		newV, err = h.alloc.AllocStripe(classValue16, stripe) // line 4
		if err != nil {
			ulog.Reclaim()
			return ref, err
		}
		word0 = packValue(newV, len(value))

		// Line 5: new_value = V; persistent(new_value). Atomic word stores —
		// see insertNew.
		h.arena.SetPersistSite("update.value")
		h.arena.WriteWords(newV, value)
		h.arena.Persist(newV, len(value))
	}

	// Lines 2, 3, 6: the log record. It carries word 0 whole — for a value
	// object the packed pointer and length — and the shape byte, so
	// recovery can rebuild the leaf's header verbatim.
	h.arena.SetPersistSite("update.log")
	ulog.Commit(leaf, oldV, word0, uint8(shape))

	// Line 7: set the bit for the new value. On failure the new object's
	// bit is clear (nothing durable to undo), but the slot must leave its
	// volatile in-flight state and the armed log must be reclaimed, or the
	// failed update strands a permanently-busy ulog slot.
	if !newV.IsNil() {
		h.arena.SetPersistSite("update.value-bit")
		if err := h.alloc.SetBit(newV); err != nil {
			h.alloc.Free(newV)
			ulog.Reclaim()
			return ref, err
		}
	}

	// Line 8: swing the leaf to the new value.
	h.arena.SetPersistSite("update.swing")
	if shape == ref.shape() {
		h.swing(leaf, word0)
	} else {
		h.reshape(leaf, word0, shape)
	}
	nref := makeLeafRef(leaf, shape)

	// Line 9: clear the old value's bit. The update committed at the
	// swing, so a failure here must not leave the log armed — reclaim it
	// and surface the error (the old object's bit leaks until fsck, which
	// is exactly what Check reports).
	if !oldV.IsNil() {
		h.arena.SetPersistSite("update.release-old")
		if err := h.alloc.Retire(oldV); err != nil {
			ulog.Reclaim()
			return nref, err
		}
	}

	h.arena.SetPersistSite("update.reclaim")
	ulog.Reclaim() // line 11

	// Line 10, after line 11: only now may the old slot be reallocated;
	// its chunk is recycled if that emptied it.
	if !oldV.IsNil() {
		h.arena.SetPersistSite("update.recycle-old")
		if err := h.alloc.Free(oldV); err != nil {
			return nref, err
		}
	}
	h.obs.updates.Add(1)
	return nref, nil
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
	if w, found := s.root.Get(artKey); found {
		err = h.updateAt(s, artKey, leafRef(w), value, epalloc.StripeFor(hashKey))
	} else {
		err = ErrNotFound
	}
	s.endWrite()
	if err == nil {
		s.ops.Add(1)
	}
	s.mu.Unlock()
	return err
}

// Get looks a key up (Algorithm 4) and returns a copy of its value.
//
// The fast path is lock-free: it resolves the shard through the
// directory, walks the shard's tree, and validates the walk and the
// PM-side reads against the shard seqlock, retrying on interference and
// falling back to the shard read lock after optimisticAttempts tries. See
// DESIGN.md §11.
//
// The destination buffer is a constant-capacity stack allocation handed
// to GetInto, whose dst parameter leaks only to its result: escape
// analysis therefore heap-allocates it only when the caller lets the
// returned value escape, making the common look-up-and-inspect pattern
// allocation-free.
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
	v, ok := h.lockedGet(key, dst, true)
	if !ok {
		h.obs.getMisses.Add(1)
	}
	return v, ok
}

// Contains reports whether key is present. Unlike Get it neither copies
// nor allocates: presence is decided from the tree and, for a record whose
// value is out of line, the packed word 0 alone.
func (h *HART) Contains(key []byte) bool {
	if h.validate(key, nil) != nil {
		return false
	}
	for i := 0; i < optimisticAttempts; i++ {
		_, ok, conclusive := h.readOptimistic(key, nil, false)
		if conclusive {
			return ok
		}
	}
	_, ok := h.lockedGet(key, nil, false)
	return ok
}

// readOptimistic runs one attempt of the lock-free Algorithm 4. It
// reports (value, found, conclusive); conclusive=false means a writer
// interfered and the attempt tells us nothing. The protocol:
//
//  1. Resolve the shard of the key's first kh bytes in the directory. No
//     shard → conclusively absent (the load of the directory page is the
//     linearization point; a published page is immutable).
//  2. Load the shard seqlock. Odd → a writer is mid-section; retry.
//  3. Walk the shard's tree. Its writer edits it in place, so the walk
//     may meet it mid-edit; every word it loads is atomic, so it ends in
//     a leaf or a miss, and a miss is conclusive only if seq is still
//     unchanged (no write section came between).
//  4. Read the value through the leaf (readValue: word 0, which is the
//     value or names its object) — all atomic word loads, racing at
//     worst with atomic word stores from writers reusing the slot. Before
//     a word 0 is followed to an object, seq is re-loaded once: the word
//     of a leaf a writer has meanwhile given an inline value is user
//     bytes, not an address.
//  5. Re-load seq. Unchanged-and-even proves no writer entered the
//     shard between steps 2 and 5, so the walk and every PM word read
//     belong to one consistent committed state.
func (h *HART) readOptimistic(key, dst []byte, needValue bool) (v []byte, found, conclusive bool) {
	hashKey, artKey := h.splitKey(key)
	s, ok := h.dir.Load().Get(hashKey)
	if !ok {
		return nil, false, true
	}
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
	w, ok := s.root.Get(artKey)
	if !ok {
		return nil, false, s.seq.Load() == v0
	}
	// Algorithm 4's leaf-bit validation is subsumed here by the seqlock:
	// a leaf's tree membership and its bit only ever change together
	// inside one write section (insertNew sets the bit before its section
	// closes, Delete clears it in the section that unpublishes the leaf),
	// so a tree observed in a quiescent window — seq even and unchanged
	// across the whole read — holds committed leaves only, and the
	// explicit BitIsSet of the locked path would be redundant PM traffic.
	// The same goes for the shape the ref carries: it and the leaf's word
	// 0 change in one section. A stale leaf read through an interfered
	// window is discarded by the seq check below before it can be returned.
	v, found = h.readValue(leafRef(w), dst, needValue, func() bool { return s.seq.Load() == v0 })
	if s.seq.Load() != v0 {
		return nil, false, false
	}
	return v, found, true
}

// lockedGet is Algorithm 4 under the shard read lock: the fallback for
// readers that kept losing seqlock races or met a lazily recovered shard
// whose ART is not built yet.
func (h *HART) lockedGet(key, dst []byte, needValue bool) ([]byte, bool) {
	s, hashKey := h.lockShardR(key) // lines 1-2
	if s == nil {
		return nil, false // lines 3-4
	}
	defer s.mu.RUnlock()
	artKey := key[len(hashKey):]
	w, found := s.root.Get(artKey) // line 5
	if !found {
		return nil, false // lines 6-7
	}
	ref := leafRef(w)
	// Lines 9-12: validate the leaf against its persistent bit before
	// trusting its word 0.
	if set, err := h.alloc.BitIsSet(ref.ptr()); err != nil || !set {
		return nil, false
	}
	return h.readValue(ref, dst, needValue, nil)
}

// Delete removes a key (Algorithm 5).
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
	removed, err := h.deleteLocked(key)
	if removed {
		h.obs.deletes.Add(1)
	} else if err == ErrNotFound {
		h.obs.deleteMisses.Add(1)
	}
	return err
}

// deleteLocked is Delete's under-the-shard-lock body. It reports true
// exactly when the record was removed (the commit point passed, whatever
// later cleanup reported).
func (h *HART) deleteLocked(key []byte) (bool, error) {
	s, hashKey := h.lockShardW(key, false) // lines 1-2
	if s == nil {
		return false, ErrNotFound // lines 3-4
	}
	artKey := key[len(hashKey):]
	defer s.mu.Unlock()
	s.beginWrite()
	defer s.endWrite()

	// Lines 5 and 9 in one walk: find the record and remove it from the
	// (volatile) tree first; a crash after this point leaves the PM bits
	// to the reset protocol below.
	w, found := s.root.Delete(artKey)
	if !found {
		return false, ErrNotFound // lines 6-7
	}
	ref := leafRef(w)
	leaf := ref.ptr()

	// Line 10. A record that is one object — its ref says so — has no
	// value to find and skips lines 12-13: the leaf bit is all of its
	// delete.
	var val pmem.Ptr
	if ref.shape() == 0 {
		val, _ = unpackValue(h.arena.Read8(leaf + lfWord0))
	}

	// Lines 11 and 14: reset and persist the leaf bit, and recycle the
	// leaf's chunk if that emptied it. From here the leaf is dead even
	// across a crash, and its slot is allocatable at once: its word 0
	// stays as it was, and nothing reads a dead slot's word 0. A crash
	// before the value-bit reset below strands the value object, which no
	// live leaf references, so recovery's orphan sweep reclaims it. On
	// failure the bit was not cleared and the record is still fully
	// committed on PM, so republish it and report the error — dropping it
	// from the tree alone would lose the key for readers while recovery
	// would resurrect it.
	h.arena.SetPersistSite("delete.leaf-bit")
	if err := h.alloc.Release(leaf); err != nil {
		s.root.Insert(artKey, uint64(ref))
		return false, err
	}

	// The leaf-bit reset above is the commit point: from here the delete
	// has happened, so a failure below must not abandon the size/shard
	// accounting — finish it and report the error (the leaked value bit
	// is then visible to Check, and recovery's orphan sweep reclaims it).
	//
	// Lines 12-13: reset the value bit and recycle its chunk if emptied.
	var err error
	if !val.IsNil() {
		h.arena.SetPersistSite("delete.value-bit")
		err = h.alloc.Release(val)
	}

	h.size.Add(-1)
	// Lines 15-16: free the ART if it became empty.
	h.removeShardIfEmpty(hashKey, s)
	return true, err
}

// GetLeaf returns the PM address of a key's leaf (tests and fsck).
func (h *HART) GetLeaf(key []byte) (pmem.Ptr, bool) {
	s, hashKey := h.lockShardR(key)
	if s == nil {
		return pmem.Nil, false
	}
	defer s.mu.RUnlock()
	artKey := key[len(hashKey):]
	w, found := s.root.Get(artKey)
	if !found {
		return pmem.Nil, false
	}
	leaf := leafRef(w).ptr()
	if !bytes.Equal(h.leafKey(leaf), key) {
		return pmem.Nil, false
	}
	return leaf, true
}
