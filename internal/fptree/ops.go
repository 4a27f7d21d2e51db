package fptree

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// Put implements kv.Index.
func (t *Tree) Put(key, value []byte) error {
	if err := validate(key, value, true); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := pmem.Ptr(t.inner.Lookup(key))
	if i := t.findInLeaf(leaf, key); i >= 0 {
		return t.updateInLeaf(leaf, i, key, value)
	}
	return t.insertNew(leaf, key, value)
}

// Update implements kv.Index.
func (t *Tree) Update(key, value []byte) error {
	if err := validate(key, value, true); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := pmem.Ptr(t.inner.Lookup(key))
	i := t.findInLeaf(leaf, key)
	if i < 0 {
		return ErrNotFound
	}
	return t.updateInLeaf(leaf, i, key, value)
}

// insertNew adds a record to the routed leaf, splitting when full.
func (t *Tree) insertNew(leaf pmem.Ptr, key, value []byte) error {
	slot := t.freeSlot(leaf)
	if slot < 0 {
		if err := t.split(leaf); err != nil {
			return err
		}
		// The key may now route to the new sibling.
		leaf = pmem.Ptr(t.inner.Lookup(key))
		slot = t.freeSlot(leaf)
		if slot < 0 {
			return fmt.Errorf("fptree: leaf still full after split")
		}
	}
	// Entry + fingerprint first, bitmap-bit commit last.
	t.writeEntry(leaf, slot, key, value)
	bm := t.arena.Read8(leaf + lfBitmap)
	t.setBitmap(leaf, bm|1<<uint(slot))
	t.size++
	return nil
}

// updateInLeaf performs FPTree's out-of-place in-leaf update: the new
// entry lands in a free slot, and one atomic bitmap store swaps the old
// slot out and the new slot in.
func (t *Tree) updateInLeaf(leaf pmem.Ptr, old int, key, value []byte) error {
	slot := t.freeSlot(leaf)
	if slot < 0 {
		if err := t.split(leaf); err != nil {
			return err
		}
		leaf = pmem.Ptr(t.inner.Lookup(key))
		old = t.findInLeaf(leaf, key)
		if old < 0 {
			return fmt.Errorf("fptree: record lost across split")
		}
		slot = t.freeSlot(leaf)
		if slot < 0 {
			return fmt.Errorf("fptree: leaf still full after split")
		}
	}
	t.writeEntry(leaf, slot, key, value)
	bm := t.arena.Read8(leaf + lfBitmap)
	t.setBitmap(leaf, bm&^(1<<uint(old))|1<<uint(slot))
	return nil
}

// Delete implements kv.Index: one atomic bitmap store invalidates the
// record; leaves are never merged.
func (t *Tree) Delete(key []byte) error {
	if err := validate(key, nil, false); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := pmem.Ptr(t.inner.Lookup(key))
	i := t.findInLeaf(leaf, key)
	if i < 0 {
		return ErrNotFound
	}
	bm := t.arena.Read8(leaf + lfBitmap)
	t.setBitmap(leaf, bm&^(1<<uint(i)))
	t.size--
	return nil
}

// GetInto implements kv.Index.
func (t *Tree) GetInto(key, dst []byte) ([]byte, bool) {
	if validate(key, nil, false) != nil {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := pmem.Ptr(t.inner.Lookup(key))
	i := t.findInLeaf(leaf, key)
	if i < 0 {
		return nil, false
	}
	return t.readEntryValue(leaf, i, dst), true
}

// split divides a full leaf at its median key: the new right sibling is
// fully built and persisted aside, then published under the split
// micro-log (link, then bitmap prune), and finally announced to the DRAM
// routing tree.
func (t *Tree) split(leaf pmem.Ptr) error {
	type rec struct {
		slot int
		key  []byte
	}
	var recs []rec
	bm := t.arena.Read8(leaf + lfBitmap)
	for i := 0; i < LeafCapacity; i++ {
		if bm&(1<<uint(i)) != 0 {
			recs = append(recs, rec{i, t.readEntryKey(leaf, i, nil)})
		}
	}
	if len(recs) < 2 {
		return fmt.Errorf("fptree: splitting leaf with %d records", len(recs))
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].key, recs[j].key) < 0 })
	upper := recs[len(recs)/2:]

	newLeaf, err := t.na.Alloc(LeafSize)
	if err != nil {
		return err
	}
	var movedBits uint64
	var newBM uint64
	for j, r := range upper {
		v := t.readEntryValue(leaf, r.slot, nil)
		e := t.entryAddr(newLeaf, j)
		t.arena.Write1(e+enKeyLen, byte(len(r.key)))
		t.arena.Write1(e+enValLen, byte(len(v)))
		t.arena.WriteAt(e+enKey, r.key)
		t.arena.WriteAt(e+enVal, v)
		t.arena.Write1(newLeaf+lfFPs+pmem.Ptr(j), fingerprint(r.key))
		newBM |= 1 << uint(j)
		movedBits |= 1 << uint(r.slot)
	}
	t.arena.Write8(newLeaf+lfBitmap, newBM)
	t.arena.WritePtr(newLeaf+lfNext, t.arena.ReadPtr(leaf+lfNext))
	t.arena.Persist(newLeaf, LeafSize)

	// Arm the split log (PNew first; armed iff PLeaf != 0).
	t.arena.WritePtr(t.sb+sbLogNew, newLeaf)
	t.arena.Persist(t.sb+sbLogNew, 8)
	t.arena.WritePtr(t.sb+sbLogLeaf, leaf)
	t.arena.Persist(t.sb+sbLogLeaf, 8)

	// Link the sibling, prune the moved entries, disarm.
	t.arena.WritePtr(leaf+lfNext, newLeaf)
	t.arena.Persist(leaf+lfNext, 8)
	t.setBitmap(leaf, bm&^movedBits)
	t.arena.WritePtr(t.sb+sbLogLeaf, pmem.Nil)
	t.arena.Persist(t.sb+sbLogLeaf, 8)

	t.inner.Insert(upper[0].key, uint64(newLeaf))
	return nil
}

// recoverSplitLog completes a split interrupted by a crash.
func (t *Tree) recoverSplitLog() error {
	leaf := t.arena.ReadPtr(t.sb + sbLogLeaf)
	if leaf.IsNil() {
		return nil
	}
	newLeaf := t.arena.ReadPtr(t.sb + sbLogNew)
	if t.arena.ReadPtr(leaf+lfNext) == newLeaf {
		// Linked: redo the prune (clear every old slot whose key exists in
		// the sibling) — idempotent.
		bm := t.arena.Read8(leaf + lfBitmap)
		for i := 0; i < LeafCapacity; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			if t.findInLeaf(newLeaf, t.readEntryKey(leaf, i, nil)) >= 0 {
				bm &^= 1 << uint(i)
			}
		}
		t.setBitmap(leaf, bm)
	} else {
		// Never linked: the sibling is unreachable garbage; hand it back
		// to the (volatile) allocator for reuse.
		t.na.Free(newLeaf, LeafSize)
	}
	t.arena.WritePtr(t.sb+sbLogLeaf, pmem.Nil)
	t.arena.Persist(t.sb+sbLogLeaf, 8)
	return nil
}

// Rebuild implements kv.Recoverable: it reconstructs the DRAM inner tree
// by walking the persistent leaf chain in key order (the recovery the
// paper measures in Fig. 10c — fast because each leaf carries up to
// LeafCapacity records).
func (t *Tree) Rebuild() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	head := t.head()
	t.inner = newInnerTree(innerOrder, uint64(head))
	t.size = 0
	first := true
	for leaf := head; !leaf.IsNil(); leaf = t.arena.ReadPtr(leaf + lfNext) {
		bm := t.arena.Read8(leaf+lfBitmap) & bitmapMask
		var minKey []byte
		for i := 0; i < LeafCapacity; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			t.size++
			k := t.readEntryKey(leaf, i, nil)
			if minKey == nil || bytes.Compare(k, minKey) < 0 {
				minKey = k
			}
		}
		if first {
			first = false // the head leaf is the routing tree's seed
			continue
		}
		if minKey != nil {
			t.inner.Insert(minKey, uint64(leaf))
		}
	}
	return nil
}

// Scan implements kv.Index: route to the starting leaf, then follow the
// persistent leaf chain, sorting each leaf's (unsorted) valid entries.
func (t *Tree) Scan(start, end []byte, fn func(key, value []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaf pmem.Ptr
	if start == nil {
		leaf = t.head()
	} else {
		leaf = pmem.Ptr(t.inner.Lookup(start))
	}
	for ; !leaf.IsNil(); leaf = t.arena.ReadPtr(leaf + lfNext) {
		bm := t.arena.Read8(leaf+lfBitmap) & bitmapMask
		type rec struct {
			k, v []byte
		}
		var recs []rec
		for i := 0; i < LeafCapacity; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			recs = append(recs, rec{t.readEntryKey(leaf, i, nil), t.readEntryValue(leaf, i, nil)})
		}
		sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].k, recs[j].k) < 0 })
		for _, r := range recs {
			if start != nil && bytes.Compare(r.k, start) < 0 {
				continue
			}
			if end != nil && bytes.Compare(r.k, end) >= 0 {
				return
			}
			if !fn(r.k, r.v) {
				return
			}
		}
	}
}

// Check is FPTree's fsck: leaf-chain order, fingerprint integrity,
// routing consistency and record count.
func (t *Tree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	var prevMax []byte
	seen := map[string]bool{}
	for leaf := t.head(); !leaf.IsNil(); leaf = t.arena.ReadPtr(leaf + lfNext) {
		bm := t.arena.Read8(leaf+lfBitmap) & bitmapMask
		var keys [][]byte
		for i := 0; i < LeafCapacity; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			k := t.readEntryKey(leaf, i, nil)
			if got, want := t.arena.Read1(leaf+lfFPs+pmem.Ptr(i)), fingerprint(k); got != want {
				return fmt.Errorf("fptree: leaf %d slot %d fingerprint %#x, want %#x", leaf, i, got, want)
			}
			if seen[string(k)] {
				return fmt.Errorf("fptree: duplicate key %q", k)
			}
			seen[string(k)] = true
			if routed := pmem.Ptr(t.inner.Lookup(k)); routed != leaf {
				return fmt.Errorf("fptree: key %q lives in leaf %d but routes to %d", k, leaf, routed)
			}
			keys = append(keys, k)
			count++
		}
		if len(keys) == 0 {
			continue
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		if prevMax != nil && bytes.Compare(prevMax, keys[0]) >= 0 {
			return fmt.Errorf("fptree: leaf chain out of order: %q then %q", prevMax, keys[0])
		}
		prevMax = keys[len(keys)-1]
	}
	if count != t.size {
		return fmt.Errorf("fptree: chain holds %d records, size counter says %d", count, t.size)
	}
	return nil
}
