package pmart

import (
	"bytes"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// WOART is the Write Optimal Adaptive Radix Tree (Lee et al., FAST 2017),
// the strongest radix-tree competitor in the HART paper's evaluation. It
// makes every structural change failure-atomic with fine-grained ordered
// persists:
//
//   - NODE4 publishes an insertion with one atomic 8-byte slot-word store
//     (4 key bytes + valid nibble) after the child pointer is durable.
//   - NODE16 publishes via one atomic bitmap store.
//   - NODE48 publishes via one atomic 1-byte index store.
//   - NODE256 publishes via the atomic child-pointer store itself.
//   - Node growth, shrink and path splits build the replacement node off
//     to the side, persist it completely, and publish it with one atomic
//     parent-pointer swap.
//
// Because internal nodes are persistent, WOART pays a persist for every
// structural store — the cost HART avoids by keeping internal nodes in
// DRAM.
type WOART struct{ *tree }

var _ kv.Index = (*WOART)(nil)

// NewWOART creates a WOART over a fresh arena.
func NewWOART(cfg pmem.Config) (*WOART, error) {
	t, err := newTree(cfg, woartKind)
	if err != nil {
		return nil, err
	}
	return &WOART{t}, nil
}

// OpenWOART attaches to an arena holding a WOART.
func OpenWOART(arena *pmem.Arena) (*WOART, error) {
	t, err := openTree(arena, woartKind)
	if err != nil {
		return nil, err
	}
	return &WOART{t}, nil
}

// Put implements kv.Index: insert or update.
func (t *WOART) Put(key, value []byte) error {
	if err := validate(key, value, true); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insert(t.rootSlot(), t.root(), terminated(key), 0, key, value)
}

// insert adds key below the node referenced by *slot. tk is the
// terminated key; depth counts consumed bytes of tk.
func (t *WOART) insert(slot, n pmem.Ptr, tk []byte, depth int, key, value []byte) error {
	if n.IsNil() {
		// Empty subtree: build the leaf off to the side and publish it
		// with one atomic pointer store.
		leaf, err := t.newLeaf(key, value)
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, tagLeaf(leaf))
		t.size++
		return nil
	}

	if isLeaf(n) {
		leaf := untag(n)
		if leafMatches(t.arena, leaf, key) {
			return t.updateLeaf(leaf, value)
		}
		// Lazy-expansion split: a NODE4 adopts the old and new leaves.
		lk := terminated(leafKeyBytes(t.arena, leaf))
		cp := commonPrefixLen(lk[depth:], tk[depth:])
		newLeaf, err := t.newLeaf(key, value)
		if err != nil {
			return err
		}
		n4, err := buildNode(t.arena, t.na, typeNode4, tk[depth:depth+cp], []edge{
			{Byte: lk[depth+cp], Child: n},
			{Byte: tk[depth+cp], Child: tagLeaf(newLeaf)},
		})
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, n4)
		t.size++
		return nil
	}

	prefix := fullPrefix(t.arena, n, depth)
	rest := tk[depth:]
	cp := commonPrefixLen(prefix, rest)
	if cp < len(prefix) {
		// The key diverges inside n's compressed path. Clone n with the
		// shortened prefix, hang clone + new leaf under a fresh NODE4 and
		// publish with one pointer swap (in-place prefix edits cannot be
		// made failure-atomic together with the parent update).
		clone, err := buildNode(t.arena, t.na, nodeType(t.arena, n), prefix[cp+1:], edgesOf(t.arena, n))
		if err != nil {
			return err
		}
		newLeaf, err := t.newLeaf(key, value)
		if err != nil {
			return err
		}
		n4, err := buildNode(t.arena, t.na, typeNode4, prefix[:cp], []edge{
			{Byte: prefix[cp], Child: clone},
			{Byte: rest[cp], Child: tagLeaf(newLeaf)},
		})
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, n4)
		t.na.Free(n, sizeOf(nodeType(t.arena, n)))
		t.size++
		return nil
	}
	depth += len(prefix)

	b := tk[depth]
	childSlot, child := findChild(t.arena, n, b)
	if !child.IsNil() {
		return t.insert(childSlot, child, tk, depth+1, key, value)
	}

	// New edge on n: build the leaf, then publish it with the node kind's
	// atomic in-place protocol, growing the node when full.
	leaf, err := t.newLeaf(key, value)
	if err != nil {
		return err
	}
	if !addChildInPlace(t.arena, n, b, tagLeaf(leaf)) {
		edges := append(edgesOf(t.arena, n), edge{Byte: b, Child: tagLeaf(leaf)})
		typ := nodeType(t.arena, n)
		grown, err := buildNode(t.arena, t.na, grownType(typ), prefix, edges)
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, grown)
		t.na.Free(n, sizeOf(typ))
	}
	t.size++
	return nil
}

// Delete implements kv.Index.
func (t *WOART) Delete(key []byte) error {
	if err := validate(key, nil, false); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	removed, err := t.remove(t.rootSlot(), t.root(), terminated(key), 0, key)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	t.size--
	return nil
}

// remove deletes key from the subtree at *slot.
func (t *WOART) remove(slot, n pmem.Ptr, tk []byte, depth int, key []byte) (bool, error) {
	if n.IsNil() {
		return false, nil
	}
	if isLeaf(n) {
		leaf := untag(n)
		if !leafMatches(t.arena, leaf, key) {
			return false, nil
		}
		// Unpublish with one atomic store, then release the space.
		replaceChildAt(t.arena, slot, pmem.Nil)
		t.freeValue(t.arena.Read8(leaf + leafValueWord))
		t.na.Free(leaf, leafSize)
		return true, nil
	}

	var prefix [maxStoredPrefix]byte
	full, stored := readPrefix(t.arena, n, &prefix)
	if len(tk)-depth < full || !bytes.Equal(stored, tk[depth:depth+len(stored)]) {
		return false, nil
	}
	depth += full
	if depth >= len(tk) {
		return false, nil
	}
	b := tk[depth]
	childSlot, child := findChild(t.arena, n, b)
	if child.IsNil() {
		return false, nil
	}

	if isLeaf(child) {
		leaf := untag(child)
		if !leafMatches(t.arena, leaf, key) {
			return false, nil
		}
		// Unpublish via the node kind's atomic protocol, release, then
		// restore shape invariants.
		removeChildInPlace(t.arena, n, b)
		t.freeValue(t.arena.Read8(leaf + leafValueWord))
		t.na.Free(leaf, leafSize)
		return true, t.fixupAfterRemove(slot, n, depth-full)
	}
	return t.remove(childSlot, child, tk, depth+1, key)
}

// fixupAfterRemove restores shape invariants of n (published at *slot)
// after one of its leaf children was removed: an empty node unlinks, a
// single-child node merges into its child's path, an underfull node
// shrinks to the smaller kind. Each case builds the replacement off to
// the side and publishes it with one atomic swap.
func (t *WOART) fixupAfterRemove(slot, n pmem.Ptr, depth int) error {
	typ := nodeType(t.arena, n)
	c := countChildren(t.arena, n)
	switch {
	case c == 0:
		replaceChildAt(t.arena, slot, pmem.Nil)
		t.na.Free(n, sizeOf(typ))
		return nil

	case c == 1:
		e := edgesOf(t.arena, n)[0]
		if isLeaf(e.Child) {
			replaceChildAt(t.arena, slot, e.Child)
			t.na.Free(n, sizeOf(typ))
			return nil
		}
		// Merge paths: child prefix becomes nPrefix + edge byte + childPrefix.
		np := fullPrefix(t.arena, n, depth)
		cp := fullPrefix(t.arena, e.Child, depth+len(np)+1)
		merged := append(append(append([]byte(nil), np...), e.Byte), cp...)
		clone, err := buildNode(t.arena, t.na, nodeType(t.arena, e.Child), merged, edgesOf(t.arena, e.Child))
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, clone)
		t.na.Free(e.Child, sizeOf(nodeType(t.arena, e.Child)))
		t.na.Free(n, sizeOf(typ))
		return nil
	}

	if smaller, threshold := shrunkType(typ); threshold > 0 && c <= threshold {
		shrunk, err := buildNode(t.arena, t.na, smaller, fullPrefix(t.arena, n, depth), edgesOf(t.arena, n))
		if err != nil {
			return err
		}
		replaceChildAt(t.arena, slot, shrunk)
		t.na.Free(n, sizeOf(typ))
	}
	return nil
}
