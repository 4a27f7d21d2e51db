package art

// Mutation. One insert and one remove serve every way a tree is edited;
// their mode says who can see the tree, and so which nodes they may write
// in place.
//
// A change always ends in one place: a child slot that takes another
// node, an edge added to or removed from a node, or a node replaced by a
// new one (a copy with another terminator, edge set, prefix or kind, or a
// new chain after a split or merge). insert and remove return the node
// that takes n's place, n itself when nothing above it has to change.

// mode says who can see the tree an edit works on.
type mode uint8

const (
	// copyAll copies every node on the path and writes nothing reachable
	// from the tree it starts from, which stays readable bit for bit:
	// CowInsert and CowDelete.
	copyAll mode = iota
	// published edits a tree lock-free readers may be walking (Root): its
	// writer holds a lock that excludes every other writer, and no word a
	// reader can load changes but by one atomic store. A child slot is
	// swung in place. NODE48 and NODE256 edges are added and removed in
	// place (insertChild, removeChild). Everything else — a NODE4's or
	// NODE16's edge set, any node's kind, prefix or terminator — changes
	// only in a copy, which is published by the one store into the live
	// parent's slot or the root word. No ancestor is ever copied.
	published
	// private edits a tree no reader can reach (Batch): every node in
	// place.
	private
)

// own returns a node with h's contents that the edit may change in any
// field: h itself for a private tree, otherwise a copy.
func (m mode) own(h *inner) *inner {
	if m == private {
		return h
	}
	return h.clone()
}

// withEdges returns a node with h's contents that the edit may add an
// edge to or remove one from: h itself where insertChild and removeChild
// may edit it in place, otherwise a copy.
func (m mode) withEdges(h *inner) *inner {
	if m == private || m == published && h.kind() >= Kind48 {
		return h
	}
	return h.clone()
}

// withRoom is withEdges for an edge to be added: when h is full, a copy
// of the next kind.
func (m mode) withRoom(h *inner) *inner {
	if int(h.n) == capacity[h.kind()] {
		return h.resized(h.kind() + 1)
	}
	return m.withEdges(h)
}

// swing stores c in h's slot for edge byte b and returns the node that
// takes h's place: h, whose slot the store changed, unless the edit may
// not write h; then a copy.
func (m mode) swing(h *inner, b byte, c *node) *node {
	if m == copyAll {
		h = h.clone()
	}
	store(h.slot(b), c)
	return &h.node
}

// CowInsert returns a tree with val stored under key, leaving t
// unchanged, and reports the previous value if the key was present. The
// key bytes are copied into the new leaf. It panics on a key longer than
// MaxKeyLen.
func (t *Tree) CowInsert(key []byte, val uint64) (nu *Tree, old uint64, updated bool) {
	root, old, updated := insert(t.root, key, 0, val, copyAll)
	size := t.size
	if !updated {
		size++
	}
	return &Tree{root: root, size: size}, old, updated
}

// CowDelete returns a tree without key, leaving t unchanged, and reports
// the removed value if the key was present. Inner nodes shrink to smaller
// kinds as they empty and single-child paths re-compress, so a tree that
// empties returns to a nil root. Deleting an absent key returns t itself.
func (t *Tree) CowDelete(key []byte) (nu *Tree, old uint64, ok bool) {
	root, old, ok := remove(t.root, key, 0, copyAll)
	if !ok {
		return t, 0, false
	}
	return &Tree{root: root, size: t.size - 1}, old, true
}

// Insert stores val under key, returning the previous value if the key
// was present. The key bytes are copied into the new leaf. It panics on a
// key longer than MaxKeyLen. The caller excludes every other writer of r;
// readers need no exclusion (see Root).
func (r *Root) Insert(key []byte, val uint64) (old uint64, updated bool) {
	n := r.p.Load()
	nn, old, updated := insert(n, key, 0, val, published)
	if nn != n {
		r.p.Store(nn)
	}
	return old, updated
}

// Delete removes key, returning its value if it was present, under the
// same rule as Insert.
func (r *Root) Delete(key []byte) (old uint64, ok bool) {
	n := r.p.Load()
	nn, old, ok := remove(n, key, 0, published)
	if nn != n {
		r.p.Store(nn)
	}
	return old, ok
}

// insert stores val under key below n, whose path covers key[:depth], and
// returns the node that takes n's place.
func insert(n *node, key []byte, depth int, val uint64, m mode) (*node, uint64, bool) {
	if n == nil {
		return &newLeaf(key, val).node, 0, false
	}
	if n.isLeaf() {
		// Leaves are immutable: replace, never edit.
		l := n.leaf()
		lk := l.k()
		if string(lk) == string(key) {
			return &newLeaf(key, val).node, l.val, true
		}
		// Lazy expansion ends here: a new node holds both records below
		// the path they share.
		cp := commonPrefixLen(lk[depth:], key[depth:])
		nn := newInner(Kind4)
		attach(nn, lk, depth+cp, l)
		attach(nn, key, depth+cp, newLeaf(key, val))
		return chain(key[depth:depth+cp], nn), 0, false
	}

	h := n.inner()
	cp := commonPrefixLen(h.prefix[:h.plen], key[depth:])
	if cp < int(h.plen) {
		// The key leaves the stored path inside h's prefix. A new node
		// takes the bytes they share; the byte after them becomes its edge
		// to the rest of the path, re-chained above the node that ends
		// h's chain so that every link below the split is full again.
		var buf [MaxKeyLen]byte
		path, end := chainPath(buf[:0], h)
		nn := newInner(Kind4)
		nn.setPrefix(path[:cp])
		nn.insertChild(path[cp], chain(path[cp+1:], m.own(end)))
		attach(nn, key, depth+cp, newLeaf(key, val))
		return &nn.node, 0, false
	}
	depth += int(h.plen)

	if depth == len(key) {
		c := m.own(h)
		var old uint64
		updated := c.term != nil
		if updated {
			old = c.term.val
		}
		c.term = newLeaf(key, val)
		return &c.node, old, updated
	}

	b := key[depth]
	child := h.child(b)
	if child == nil {
		c := m.withRoom(h)
		c.insertChild(b, &newLeaf(key, val).node)
		return &c.node, 0, false
	}
	newChild, old, updated := insert(child, key, depth+1, val, m)
	if newChild == child {
		return n, old, updated
	}
	return m.swing(h, b, newChild), old, updated
}

// attach hangs leaf l below nn: as the terminator when l's key ends at
// position pos, otherwise as a child under edge byte key[pos].
func attach(nn *inner, key []byte, pos int, l *leaf) {
	if pos == len(key) {
		nn.term = l
	} else {
		nn.insertChild(key[pos], &l.node)
	}
}

// remove deletes key below n, whose path covers key[:depth], and returns
// the node that takes n's place: nil when nothing is left, n itself when
// the key is absent or n was edited in place.
func remove(n *node, key []byte, depth int, m mode) (*node, uint64, bool) {
	if n == nil {
		return nil, 0, false
	}
	if n.isLeaf() {
		if l := n.leaf(); string(l.k()) == string(key) {
			return nil, l.val, true
		}
		return n, 0, false
	}

	h := n.inner()
	if !hasPrefix(key[depth:], h) {
		return n, 0, false
	}
	depth += int(h.plen)

	if depth == len(key) {
		if h.term == nil {
			return n, 0, false
		}
		old := h.term.val
		c := m.own(h)
		c.term = nil
		return compact(c, m), old, true
	}

	b := key[depth]
	child := h.child(b)
	newChild, old, ok := remove(child, key, depth+1, m)
	switch {
	case !ok:
		return n, 0, false
	case newChild != nil && newChild.isLeaf() && h.isLink():
		// The chain h belongs to no longer leads to an inner node: it
		// collapses, link by link, into the one record left below it.
		return newChild, old, true
	case newChild == nil:
		c := m.withEdges(h)
		c.removeChild(b)
		return compact(c, m), old, true
	case newChild == child:
		return n, old, true
	}
	return m.swing(h, b, newChild), old, true
}

// compact restores the shape invariants of h, which the edit may change,
// after a child or the terminator was removed from it: a node left with
// only its terminator collapses to that leaf, a node left with one child
// and no terminator merges into that child's path, and an underfull node
// shrinks to the previous kind.
func compact(h *inner, m mode) *node {
	switch {
	case h.n == 0:
		return &h.term.node
	case h.isLink():
		v := h.n4() // fewer than 4 children: always a NODE4
		b, child := v.keys[0], load(&v.children[0])
		if child.isLeaf() {
			return child
		}
		if h.plen == prefixCap {
			return &h.node // already a canonical link
		}
		var buf [MaxKeyLen]byte
		path := append(append(buf[:0], h.prefix[:h.plen]...), b)
		path, end := chainPath(path, child.inner())
		return chain(path, m.own(end))
	case int(h.n) <= shrinkAt[h.kind()]:
		return &h.resized(h.kind() - 1).node
	}
	return &h.node
}
