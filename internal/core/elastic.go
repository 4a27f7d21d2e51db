package core

import (
	"slices"
	"sort"
	"strings"

	"github.com/casl-sdsu/hart/internal/art"
	"github.com/casl-sdsu/hart/internal/hashdir"
)

// Elastic directory: hot-shard splitting and cold-group merging
// (DESIGN.md §14).
//
// A fixed kh routes a zipfian workload onto a handful of ARTs, where the
// per-shard writer mutex and ever-larger COW republications stop the
// write path from scaling. When Options.ElasticDirectory is set, a shard
// whose write heat crosses Options.SplitOps is split: its ART is carved
// by the next key byte into child ARTs published under one-byte-longer
// prefixes, with the record whose key equals the prefix itself (if any)
// left behind under the original entry as a residual. The split prefix
// is persisted in the superblock before the new table is published, so
// recovery regroups the leaves under the same geometry. A delete that
// leaves a split group small and cold merges it back symmetrically.
//
// Only DRAM changes shape — leaves and values never move on PM — so a
// split or merge is invisible to crash consistency: any persisted subset
// of split prefixes is a valid geometry for recovery to rebuild under.

const (
	// maxDirDepth bounds a directory entry's prefix length: split
	// prefixes reach at most maxDirDepth-1 bytes, children at most
	// maxDirDepth. Seven keeps the lazy recovery scan's single 8-byte
	// word read (keyLen + key bytes 0..6) sufficient to route any leaf.
	maxDirDepth = 7

	// DefaultSplitOps is the default per-shard write-op heat threshold
	// that triggers a split attempt.
	DefaultSplitOps = 4096

	// DefaultMergeRecords is the default record-count ceiling below
	// which a delete may fold a split group back into its parent.
	DefaultMergeRecords = 48
)

// noteWrite credits n write ops to s (caller holds s.mu) and reports
// whether the shard's heat has crossed the split threshold. Counting
// under the lock makes the trigger a pure function of the op sequence,
// which the crash-consistency checker's deterministic replay relies on.
func (h *HART) noteWrite(s *artShard, n int) bool {
	s.ops.Add(uint64(n))
	if !h.opts.ElasticDirectory {
		return false
	}
	return s.heat.Add(uint64(n)) >= uint64(h.opts.SplitOps)
}

// maybeSplit re-locates the shard at prefix and, if it is still hot,
// splits it. Called by writers after releasing the shard lock (splitting
// inside the write's critical section would re-enter the lock).
func (h *HART) maybeSplit(prefix []byte) {
	for {
		d := h.dir.Load()
		s, ok := d.tab.Get(prefix)
		if !ok {
			return
		}
		s.mu.Lock()
		if s.dead {
			s.mu.Unlock()
			continue
		}
		// Re-check under the lock: another writer may have split or a
		// merge may have rebuilt this entry since the trigger fired.
		if s.heat.Load() >= uint64(h.opts.SplitOps) {
			h.splitShard(prefix, s)
		}
		s.mu.Unlock()
		return
	}
}

// splitShard splits the live shard s at directory entry prefix into
// per-next-byte children plus an optional residual. Caller holds s.mu,
// which pins the routing of every key assigned to prefix (splitting
// prefix requires this lock; a merge of the group locks this shard too;
// and any ancestor entry of prefix is residual-only, so it can neither
// split nor be created deeper). Refusals just reset the heat and leave
// the shape unchanged.
//
// PM state is untouched: the children reference the same leaves, so the
// publication needs no seqlock section — an optimistic reader holding
// the pre-split snapshot still validates every read against the frozen
// parent tree.
func (h *HART) splitShard(prefix []byte, s *artShard) {
	s.heat.Store(0)
	if len(prefix) < h.opts.HashKeyLen || len(prefix) >= maxDirDepth {
		return
	}
	if s.pending.Load() != nil {
		h.buildPending(s)
	}
	tree := s.tree.Load()
	if tree.Len() < 2 {
		return
	}
	// Allocation-free group pre-count: a shard all of whose records share
	// the next key byte cannot split (it would only relabel), yet it
	// re-crosses the heat threshold every SplitOps ops — bail before
	// building any child batches. Ascend visits in key order, so groups
	// (the residual's empty ART key first, then each first byte) are
	// contiguous and the walk stops at the second one.
	groups := 0
	counted := false
	var lastByte byte
	lastEmpty := false
	tree.Ascend(func(artKey []byte, _ uint64) bool {
		empty := len(artKey) == 0
		var b byte
		if !empty {
			b = artKey[0]
		}
		if !counted || empty != lastEmpty || (!empty && b != lastByte) {
			groups++
			counted = true
			lastByte, lastEmpty = b, empty
		}
		return groups < 2
	})
	if groups < 2 {
		return // every record shares the next byte: splitting would only relabel
	}
	// Carve by next key byte. An empty ART key means the record's full
	// key is exactly prefix: it becomes the residual. art.Batch.Insert
	// copies key bytes, so handing it subslices of iterated keys is safe.
	var (
		residual    uint64
		hasResidual bool
		children    = make(map[byte]*art.Batch)
		order       []byte // ascending — Ascend visits in key order
	)
	tree.Ascend(func(artKey []byte, leafW uint64) bool {
		if len(artKey) == 0 {
			residual, hasResidual = leafW, true
			return true
		}
		cb := children[artKey[0]]
		if cb == nil {
			cb = art.New().BeginBatch()
			children[artKey[0]] = cb
			order = append(order, artKey[0])
		}
		cb.Insert(artKey[1:], leafW)
		return true
	})

	h.dirMu.Lock()
	d := h.dir.Load()
	if !h.persistSplitAdd(prefix) {
		h.dirMu.Unlock()
		return // all persisted split slots taken; keep the current shape
	}
	nt := d.tab.Clone()
	nt.Delete(prefix)
	if hasResidual {
		rs := newShard()
		rb := art.New().BeginBatch()
		rb.Insert(nil, residual)
		rs.tree.Store(rb.Commit())
		nt.Put(prefix, rs)
	}
	childKey := make([]byte, len(prefix)+1)
	copy(childKey, prefix)
	for _, b := range order {
		cs := newShard()
		cs.tree.Store(children[b].Commit())
		childKey[len(prefix)] = b
		nt.Put(childKey, cs)
	}
	h.dir.Store(&dirTable{tab: nt, splits: d.splits.With(prefix)})
	h.splitCount.Add(1)
	h.obs.dirPublish.Add(1)
	h.dirMu.Unlock()
	s.dead = true
	h.obs.events.Emit("dir.split", evPrefix(prefix), uint64(len(order)), uint64(h.splitCount.Load()))
}

// maybeMerge considers folding the split group around the entry at
// prefix back into its parent. Called by Delete after releasing the
// shard lock: the candidate split is prefix itself if it is a split
// member (the delete emptied or shrank a residual), otherwise the
// one-byte-shorter parent (the delete shrank a child).
func (h *HART) maybeMerge(prefix []byte) {
	if !h.opts.ElasticDirectory {
		return
	}
	d := h.dir.Load()
	var p []byte
	switch {
	case d.splits.Has(prefix):
		p = prefix
	case len(prefix) > h.opts.HashKeyLen:
		p = prefix[:len(prefix)-1]
		if !d.splits.Has(p) {
			return
		}
	default:
		return
	}
	// A transient race (concurrent split, entry churn) makes one attempt
	// fail validation; a few retries settle it. Giving up is safe — the
	// next delete in the group re-triggers.
	for attempt := 0; attempt < 4; attempt++ {
		if h.tryMerge(p) {
			return
		}
	}
}

// groupEntries returns every directory entry whose name extends p
// (including the residual entry p itself), ascending. Deeper descendants
// are included so callers can detect and refuse them.
func groupEntries(t *hashdir.Table[*artShard], p []byte) []string {
	keys := t.SortedKeys()
	lo := sort.SearchStrings(keys, string(p))
	var out []string
	for i := lo; i < len(keys) && strings.HasPrefix(keys[i], string(p)); i++ {
		out = append(out, keys[i])
	}
	return out
}

// tryMerge attempts one merge of split prefix p's group. Returns true
// when settled (merged, refused, or no longer applicable) and false when
// a race invalidated the attempt and it is worth retrying.
func (h *HART) tryMerge(p []byte) bool {
	d := h.dir.Load()
	if !d.splits.Has(p) {
		return true
	}
	names := groupEntries(d.tab, p)
	for _, q := range names {
		if len(q) > len(p)+1 {
			return true // a deeper split is active below p; it merges first
		}
		if len(q) > len(p) && d.splits.Has([]byte(q)) {
			// q is itself a split member whose children are gone but
			// whose residual routing still depends on entry q existing.
			// Collapse q's (trivial) group first; p can merge later.
			return true
		}
	}
	// Lock the whole group in sorted-name order — the one multi-shard
	// lock acquisition in the system, deadlock-free because concurrent
	// merges with overlapping groups take the same global order.
	shards := make([]*artShard, len(names))
	for i, q := range names {
		s, ok := d.tab.Get([]byte(q))
		if !ok {
			return false
		}
		shards[i] = s
	}
	locked := 0
	unlockAll := func() {
		for i := locked - 1; i >= 0; i-- {
			shards[i].mu.Unlock()
		}
	}
	for _, s := range shards {
		s.mu.Lock()
		locked++
		if s.dead {
			unlockAll()
			return false
		}
	}
	total := 0
	heat := uint64(0)
	for _, s := range shards {
		if s.pending.Load() != nil {
			h.buildPending(s)
		}
		total += s.tree.Load().Len()
		heat += s.heat.Load()
	}
	if total > h.opts.MergeRecords || heat >= uint64(h.opts.SplitOps)/2 {
		// Too big or still warm. Decay the group's heat so a borderline
		// group doesn't rerun this scan on every delete, and so that a
		// group that genuinely cools eventually passes the gate.
		for _, s := range shards {
			s.heat.Store(s.heat.Load() / 2)
		}
		unlockAll()
		return true
	}
	// Build the merged ART: the residual's record keeps its empty ART
	// key; a child p+b record gains b back as its first ART-key byte.
	mb := art.New().BeginBatch()
	var kb []byte
	for i, q := range names {
		b := []byte(q)
		shards[i].tree.Load().Ascend(func(artKey []byte, leafW uint64) bool {
			if len(q) == len(p) {
				mb.Insert(artKey, leafW)
			} else {
				kb = append(kb[:0], b[len(p)])
				kb = append(kb, artKey...)
				mb.Insert(kb, leafW)
			}
			return true
		})
	}
	h.dirMu.Lock()
	d2 := h.dir.Load()
	if !slices.Equal(groupEntries(d2.tab, p), names) {
		// Entry creation happens under dirMu without shard locks, so a
		// writer may have added a group member after the snapshot above;
		// this re-validation under the same lock that creations take is
		// what makes the membership final.
		h.dirMu.Unlock()
		unlockAll()
		return false
	}
	h.persistSplitRemove(p)
	nt := d2.tab.Clone()
	for _, q := range names {
		nt.Delete([]byte(q))
	}
	if total > 0 {
		ms := newShard()
		ms.tree.Store(mb.Commit())
		nt.Put(p, ms)
	}
	h.dir.Store(&dirTable{tab: nt, splits: d2.splits.Without(p)})
	h.mergeCount.Add(1)
	h.obs.dirPublish.Add(1)
	h.dirMu.Unlock()
	for _, s := range shards {
		s.dead = true
	}
	unlockAll()
	h.obs.events.Emit("dir.merge", evPrefix(p), uint64(len(names)), uint64(total))
	// The merged shard may itself now be a cold child (or residual) of a
	// shallower split; cascade toward the base shape.
	h.maybeMerge(p)
	return true
}
