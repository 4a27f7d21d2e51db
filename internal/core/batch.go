package core

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Record is one key-value pair for batch operations.
type Record struct {
	// Key is 1..MaxKeyLen bytes.
	Key []byte
	// Value is 1..maxValueLen bytes.
	Value []byte
}

// PutBatch inserts or updates many records, amortising the per-operation
// costs that Put pays once per key: records are sorted and grouped by
// hash key, each group takes its ART's write lock once, allocates all its
// PM slots in batched stripe-lock acquisitions, persists values and
// leaves as contiguous runs, commits allocation bits through coalesced
// header writes, and republishes the shard's copy-on-write tree exactly
// once. Crash atomicity remains per record: a crash exposes a sorted
// prefix of the batch, the same guarantee the per-key path gives.
//
// The first error aborts the remainder; the count of applied records is
// returned with it.
func (h *HART) PutBatch(records []Record) (int, error) {
	if h.obs.timing.Enabled() {
		start := time.Now()
		n, err := h.putBatchOp(records)
		h.obs.batchH.Record(time.Since(start).Nanoseconds())
		return n, err
	}
	return h.putBatchOp(records)
}

// putBatchOp is PutBatch's body behind the gated timing wrapper above.
func (h *HART) putBatchOp(records []Record) (int, error) {
	for _, r := range records {
		if err := h.validateWrite(r.Key, r.Value); err != nil {
			return 0, err
		}
	}
	sorted := sortRecords(records)

	done := 0
	for i := 0; i < len(sorted); {
		// Extend the run of records sharing this hash key: sorted order
		// makes it contiguous, since a key shorter than kh is its own hash
		// key and sorts before every longer key it prefixes.
		hashKey, _ := h.splitKey(sorted[i].Key)
		j := i + 1
		for j < len(sorted) {
			if hk, _ := h.splitKey(sorted[j].Key); !bytes.Equal(hk, hashKey) {
				break
			}
			j++
		}
		s, _ := h.lockShardW(sorted[i].Key, true)
		s.beginWrite()
		var n int
		var err error
		if j-i == 1 {
			// A group of one has nothing to amortise; the per-record
			// protocol skips putGroup's batch bookkeeping.
			n, err = h.putGroupSeq(s, hashKey, sorted[i:j])
		} else {
			n, err = h.putGroup(s, hashKey, sorted[i:j])
		}
		s.endWrite()
		s.ops.Add(uint64(n))
		s.mu.Unlock()
		done += n
		if err != nil {
			h.obs.putBatches.Add(1)
			h.obs.batchRecords.Add(uint64(done))
			return done, err
		}
		i = j
	}
	h.obs.putBatches.Add(1)
	h.obs.batchRecords.Add(uint64(done))
	return done, nil
}

// sortRecords returns the records ordered by key and, among equal keys, by
// submission position, so duplicates apply in submission order and the
// batch nets out to the last submitted value, like sequential Puts. It
// sorts 4-byte positions and gathers the 48-byte records once.
func sortRecords(records []Record) []Record {
	pos := make([]int32, len(records))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int {
		if c := bytes.Compare(records[a].Key, records[b].Key); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	sorted := make([]Record, len(records))
	for i, p := range pos {
		sorted[i] = records[p]
	}
	return sorted
}

// putGroupSeq applies one group with the per-record protocol and one
// tree republication per key: what PutBatch uses for single-record
// groups, which have nothing to amortise. Caller holds the shard write
// lock and an open seqlock section.
func (h *HART) putGroupSeq(s *artShard, hashKey []byte, recs []Record) (int, error) {
	stripe := epalloc.StripeFor(hashKey)
	done := 0
	for _, r := range recs {
		artKey := r.Key[len(hashKey):]
		var err error
		if w, found := s.tree.Load().Get(artKey); found {
			err = h.updateAt(s, artKey, leafRef(w), r.Value, stripe)
		} else {
			err = h.insertNew(s, artKey, r.Key, r.Value, stripe)
		}
		if err != nil {
			return done, err
		}
		done++
	}
	return done, nil
}

// putGroup applies one hash-key group of sorted records with the batched
// protocol. Caller holds the shard write lock and an open seqlock
// section. The phases:
//
//  1. Classify each record as insert or update against the published
//     tree. Duplicates are adjacent after sorting, so only the first
//     occurrence of an absent key is an insert; later occurrences update
//     the leaf their predecessor settles.
//  2. Allocate every insert's leaf with one AllocBatch and — for the
//     inserts whose value does not fit the leaf — its value object with
//     one AllocBatch per class, all on the shard's stripe.
//  3. Write those values, persisting contiguous slot runs in single calls.
//  4. Write all leaf fields (word 0, keyLen, shape, key) and persist
//     contiguous leaf runs. The fields need no internal ordering: the
//     leaf stays dead until its bit commits.
//  5. Commit the value bits, if any, with one SetBits (one header persist
//     per chunk run). Steps 3-5 are insertNew's order — value, leaf,
//     value bit — so a value committed by a torn batch is referenced by
//     its durable dead leaf and reclaimed through it, like a torn Put's.
//     A group of inline inserts skips steps 3 and 5: leaf runs, leaf bits.
//  6. Walk the records in sorted order. Inserts go into one art.Batch —
//     which clones each tree node at most once, however many keys land
//     under it — and queue their leaf bits. Updates first flush the
//     queued bits (SetBits commits in argument order, so a crash exposes
//     a sorted prefix of the group), then run the per-record update
//     protocol, whose swing is its own commit point, and put the record's
//     ref into the batch again if the update changed its shape.
//  7. Flush the remaining leaf bits and publish the batch's tree once.
//
// On error the committed prefix stays applied; everything beyond it is
// unwound (uncommitted inserts deleted from the published tree, their
// values released, their leaves scrubbed and aborted) and the prefix
// length is returned with the error.
func (h *HART) putGroup(s *artShard, hashKey []byte, recs []Record) (int, error) {
	stripe := epalloc.StripeFor(hashKey)
	base := s.tree.Load()

	// Phase 1: classify.
	artKeys := make([][]byte, len(recs))
	isInsert := make([]bool, len(recs))
	nIns := 0
	for i, r := range recs {
		artKeys[i] = r.Key[len(hashKey):]
		if i > 0 && bytes.Equal(r.Key, recs[i-1].Key) {
			continue // duplicate: updates whatever the predecessor settled
		}
		if _, found := base.Get(artKeys[i]); !found {
			isInsert[i] = true
			nIns++
		}
	}

	// Phase 2: allocate. leafOf/valOf are indexed by record (Nil for
	// updates, valOf also for inline inserts); classPtrs keeps each class's
	// slots in allocation order, which is the contiguous-run order for
	// persisting and committing.
	leafOf := make([]pmem.Ptr, len(recs))
	valOf := make([]pmem.Ptr, len(recs))
	var leaves []pmem.Ptr
	if nIns > 0 {
		var err error
		leaves, err = h.alloc.AllocBatch(classLeaf, stripe, nIns)
		if err != nil {
			return 0, err
		}
	}
	abortAll := func() {
		for _, p := range valOf {
			if !p.IsNil() {
				_ = h.alloc.Abort(p)
			}
		}
		for _, l := range leaves {
			_ = h.alloc.Abort(l)
		}
	}
	byClass := make([][]int, int(classValue0)+len(h.opts.ValueClasses))
	k := 0
	for i := range recs {
		if !isInsert[i] {
			continue
		}
		leafOf[i] = leaves[k]
		k++
		if valueShape(len(recs[i].Value)) == 0 {
			c := h.valueClass(len(recs[i].Value))
			byClass[c] = append(byClass[c], i)
		}
	}
	classPtrs := make([][]pmem.Ptr, len(byClass))
	for c, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		ptrs, err := h.alloc.AllocBatch(epalloc.Class(c), stripe, len(idxs))
		if err != nil {
			abortAll()
			return 0, err
		}
		classPtrs[c] = ptrs
		for n, idx := range idxs {
			valOf[idx] = ptrs[n]
		}
	}

	// Phase 3: write values, persist runs.
	h.arena.SetPersistSite("batch.value")
	for i := range recs {
		if !valOf[i].IsNil() {
			h.arena.WriteWords(valOf[i], recs[i].Value)
		}
	}
	for c, ptrs := range classPtrs {
		if len(ptrs) > 0 {
			h.persistRuns(ptrs, h.opts.ValueClasses[c-int(classValue0)])
		}
	}

	// Phase 4: write leaf fields, persist runs.
	h.arena.SetPersistSite("batch.leaf-fields")
	for i, r := range recs {
		if !isInsert[i] {
			continue
		}
		shape, word0 := valueShape(len(r.Value)), packValue(valOf[i], len(r.Value))
		if shape != 0 {
			word0 = inlineWord(r.Value)
		}
		h.writeLeaf(leafOf[i], word0, shape, r.Key)
	}
	h.persistRuns(leaves, leafSize)

	// Phase 5: commit value bits. On failure the committed prefix is
	// released, the rest aborted, and every leaf scrubbed before its slot
	// is handed back (see insertNew's value-bit failure).
	h.arena.SetPersistSite("batch.value-bits")
	var valBits []pmem.Ptr
	for _, ptrs := range classPtrs {
		valBits = append(valBits, ptrs...)
	}
	if n, err := h.alloc.SetBits(valBits); err != nil {
		for m, p := range valBits {
			if m < n {
				_ = h.alloc.Release(p) // committed: undo durably
			} else {
				_ = h.alloc.Abort(p)
			}
		}
		for _, l := range leaves {
			h.scrubLeaf(l)
			_ = h.alloc.Abort(l)
		}
		return 0, err
	}

	// Phases 6-7: ordered commit walk, single publication.
	b := base.BeginBatch()
	// unwind finishes a failed walk: records [0, committedTo) are durably
	// applied and stay; inserts in [committedTo, applied) are in b but
	// uncommitted and must leave the published tree; every uncommitted
	// insert's slots unwind like insertNew's leaf-bit failure path.
	unwind := func(committedTo, applied int, cause error) (int, error) {
		t := b.Commit()
		for i := committedTo; i < applied; i++ {
			if isInsert[i] {
				t, _, _ = t.CowDelete(artKeys[i])
			}
		}
		for i := committedTo; i < len(recs); i++ {
			if !isInsert[i] {
				continue
			}
			if !valOf[i].IsNil() {
				_ = h.alloc.Release(valOf[i])
			}
			h.scrubLeaf(leafOf[i])
			_ = h.alloc.Abort(leafOf[i])
		}
		s.tree.Store(t)
		nc := 0
		for i := 0; i < committedTo; i++ {
			if isInsert[i] {
				nc++
			}
		}
		h.size.Add(int64(nc))
		h.obs.inserts.Add(uint64(nc))
		return committedTo, cause
	}

	pending := make([]pmem.Ptr, 0, nIns)
	flushBase := 0 // record index of pending[0]; [flushBase, walk) are all inserts
	for i := range recs {
		if isInsert[i] {
			b.Insert(artKeys[i], uint64(makeLeafRef(leafOf[i], valueShape(len(recs[i].Value)))))
			pending = append(pending, leafOf[i])
			continue
		}
		// Updates commit at their pointer swing, so all earlier inserts
		// must commit first to keep crash states a sorted prefix.
		if len(pending) > 0 {
			h.arena.SetPersistSite("batch.leaf-bits")
			n, err := h.alloc.SetBits(pending)
			if err != nil {
				return unwind(flushBase+n, i, err)
			}
			pending = pending[:0]
		}
		flushBase = i
		w, _ := b.Get(artKeys[i]) // present: classified as update
		ref := leafRef(w)
		nref, err := h.update(ref, recs[i].Value, stripe)
		if nref != ref {
			b.Insert(artKeys[i], uint64(nref))
		}
		if err != nil {
			return unwind(i, i, err)
		}
		flushBase = i + 1
	}
	if len(pending) > 0 {
		h.arena.SetPersistSite("batch.leaf-bits")
		n, err := h.alloc.SetBits(pending)
		if err != nil {
			return unwind(flushBase+n, len(recs), err)
		}
	}
	s.tree.Store(b.Commit())
	h.size.Add(int64(nIns))
	h.obs.inserts.Add(uint64(nIns))
	return len(recs), nil
}

// persistRuns persists a sequence of equally-sized objects, merging
// adjacent slots into single Persist calls. AllocBatch returns each
// chunk's slots adjacently in ascending order, so a batch's objects
// typically collapse into one flush per chunk — the coalesced barrier
// the batched write path exists for.
func (h *HART) persistRuns(ptrs []pmem.Ptr, size int64) {
	for i := 0; i < len(ptrs); {
		j := i + 1
		for j < len(ptrs) && ptrs[j] == ptrs[j-1]+pmem.Ptr(size) {
			j++
		}
		h.arena.Persist(ptrs[i], int(size)*(j-i))
		i = j
	}
}
