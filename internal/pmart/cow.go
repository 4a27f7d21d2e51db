package pmart

import (
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// CoW is ART+CoW, the copy-on-write persistent ART baseline of the HART
// paper (after Lee et al., FAST 2017). It shares WOART's node layouts and
// pure-PM placement but commits differently: every structural mutation
// clones the root-to-leaf path it touches, persists the fresh nodes
// completely off to the side, and publishes the whole new path with a
// single atomic root-pointer swap. Unmodified subtrees are shared between
// the old and new versions; the replaced path nodes are freed only after
// the swap.
//
// This makes every insert/delete O(depth) node copies plus persists —
// the CoW overhead that the paper's Figs. 4 and 7 show dominating its
// write performance.
type CoW struct{ *tree }

var _ kv.Index = (*CoW)(nil)

// NewCoW creates an ART+CoW over a fresh arena.
func NewCoW(cfg pmem.Config) (*CoW, error) {
	t, err := newTree(cfg, cowKind)
	if err != nil {
		return nil, err
	}
	return &CoW{t}, nil
}

// OpenCoW attaches to an arena holding an ART+CoW.
func OpenCoW(arena *pmem.Arena) (*CoW, error) {
	t, err := openTree(arena, cowKind)
	if err != nil {
		return nil, err
	}
	return &CoW{t}, nil
}

// freedBlock records one node or value replaced by a CoW mutation.
type freedBlock struct {
	p    pmem.Ptr
	size int64
}

// publish swaps the root atomically — the single commit point of every
// CoW mutation — and then releases the replaced path nodes.
func (t *CoW) publish(newRoot pmem.Ptr, freed []freedBlock) {
	replaceChildAt(t.arena, t.rootSlot(), newRoot)
	for _, f := range freed {
		t.na.Free(f.p, f.size)
	}
}

// Put implements kv.Index by copying the touched root-to-leaf path and
// publishing it with one atomic root swap.
func (t *CoW) Put(key, value []byte) error {
	if err := validate(key, value, true); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// A value update of an existing key needs no structural CoW (the same
	// mechanism as WOART and HART, per the paper's update experiment).
	if leaf := lookup(t.arena, t.root(), key); !leaf.IsNil() {
		return t.updateLeaf(leaf, value)
	}

	var freed []freedBlock
	newRoot, err := t.copyInsert(t.root(), terminated(key), 0, key, value, &freed)
	if err != nil {
		return err
	}
	t.publish(newRoot, freed)
	t.size++
	return nil
}

// copyInsert returns a fresh subtree equal to the subtree at n plus key,
// sharing every untouched child. Replaced nodes are appended to freed.
func (t *CoW) copyInsert(n pmem.Ptr, tk []byte, depth int, key, value []byte, freed *[]freedBlock) (pmem.Ptr, error) {
	if n.IsNil() {
		leaf, err := t.newLeaf(key, value)
		if err != nil {
			return pmem.Nil, err
		}
		return tagLeaf(leaf), nil
	}

	if isLeaf(n) {
		// The caller already handled exact matches; this is a split. The
		// existing leaf is shared, not copied.
		lk := terminated(leafKeyBytes(t.arena, untag(n)))
		cp := commonPrefixLen(lk[depth:], tk[depth:])
		newLeaf, err := t.newLeaf(key, value)
		if err != nil {
			return pmem.Nil, err
		}
		return buildNode(t.arena, t.na, typeNode4, tk[depth:depth+cp], []edge{
			{Byte: lk[depth+cp], Child: n},
			{Byte: tk[depth+cp], Child: tagLeaf(newLeaf)},
		})
	}

	typ := nodeType(t.arena, n)
	prefix := fullPrefix(t.arena, n, depth)
	rest := tk[depth:]
	cp := commonPrefixLen(prefix, rest)
	if cp < len(prefix) {
		// Diverge inside the compressed path: clone n with the shortened
		// prefix and hang both under a fresh NODE4.
		clone, err := buildNode(t.arena, t.na, typ, prefix[cp+1:], edgesOf(t.arena, n))
		if err != nil {
			return pmem.Nil, err
		}
		*freed = append(*freed, freedBlock{n, sizeOf(typ)})
		newLeaf, err := t.newLeaf(key, value)
		if err != nil {
			return pmem.Nil, err
		}
		return buildNode(t.arena, t.na, typeNode4, prefix[:cp], []edge{
			{Byte: prefix[cp], Child: clone},
			{Byte: rest[cp], Child: tagLeaf(newLeaf)},
		})
	}
	depth += len(prefix)

	b := tk[depth]
	_, child := findChild(t.arena, n, b)
	newChild, err := t.copyInsert(child, tk, depth+1, key, value, freed)
	if err != nil {
		return pmem.Nil, err
	}

	// Clone n with the edge replaced or added (growing as needed).
	edges := edgesOf(t.arena, n)
	replaced := false
	for i := range edges {
		if edges[i].Byte == b {
			edges[i].Child = newChild
			replaced = true
			break
		}
	}
	if !replaced {
		edges = append(edges, edge{Byte: b, Child: newChild})
	}
	*freed = append(*freed, freedBlock{n, sizeOf(typ)})
	return buildNode(t.arena, t.na, typ, prefix, edges)
}

// Delete implements kv.Index via path copying.
func (t *CoW) Delete(key []byte) error {
	if err := validate(key, nil, false); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lookup(t.arena, t.root(), key).IsNil() {
		return ErrNotFound
	}
	var freed []freedBlock
	newRoot, err := t.copyRemove(t.root(), terminated(key), 0, key, &freed)
	if err != nil {
		return err
	}
	t.publish(newRoot, freed)
	t.size--
	return nil
}

// copyRemove returns a fresh subtree equal to the subtree at n minus key.
// The caller guarantees key is present.
func (t *CoW) copyRemove(n pmem.Ptr, tk []byte, depth int, key []byte, freed *[]freedBlock) (pmem.Ptr, error) {
	if isLeaf(n) {
		leaf := untag(n)
		if vp, vn := unpackValue(t.arena.Read8(leaf + leafValueWord)); !vp.IsNil() {
			*freed = append(*freed, freedBlock{vp, valueSize(vn)})
		}
		*freed = append(*freed, freedBlock{leaf, leafSize})
		return pmem.Nil, nil
	}

	typ := nodeType(t.arena, n)
	prefix := fullPrefix(t.arena, n, depth)
	depth += len(prefix)
	b := tk[depth]
	_, child := findChild(t.arena, n, b)
	newChild, err := t.copyRemove(child, tk, depth+1, key, freed)
	if err != nil {
		return pmem.Nil, err
	}

	edges := edgesOf(t.arena, n)
	out := edges[:0]
	for _, e := range edges {
		if e.Byte == b {
			if newChild.IsNil() {
				continue
			}
			e.Child = newChild
		}
		out = append(out, e)
	}
	*freed = append(*freed, freedBlock{n, sizeOf(typ)})

	switch len(out) {
	case 0:
		return pmem.Nil, nil
	case 1:
		e := out[0]
		if isLeaf(e.Child) {
			// Collapse to the shared leaf (its key is complete).
			return e.Child, nil
		}
		// Merge paths: clone the surviving child with the longer prefix.
		ctyp := nodeType(t.arena, e.Child)
		cPrefix := fullPrefix(t.arena, e.Child, depth+1)
		merged := append(append(append([]byte(nil), prefix...), e.Byte), cPrefix...)
		clone, err := buildNode(t.arena, t.na, ctyp, merged, edgesOf(t.arena, e.Child))
		if err != nil {
			return pmem.Nil, err
		}
		*freed = append(*freed, freedBlock{e.Child, sizeOf(ctyp)})
		return clone, nil
	}

	// Rebuild at the smallest kind that fits (shrink falls out of CoW for
	// free: buildNode raises the kind as needed).
	newTyp := typ
	if smaller, threshold := shrunkType(typ); threshold > 0 && len(out) <= threshold {
		newTyp = smaller
	}
	return buildNode(t.arena, t.na, newTyp, prefix, out)
}
