package art

// Copy-on-write mutation.
//
// CowInsert and CowDelete return a new *Tree that shares every untouched
// subtree with t and copies only the nodes along the modified path
// (O(key length) copies). Every node reachable from a published tree is
// immutable, so HART can publish each shard's current tree behind an
// atomic pointer and let lock-free readers traverse it with no
// synchronisation at all: the atomic root swap is the only happens-before
// edge a reader needs.
//
// The invariant: after nu = t.CowX(...), every node reachable from t is
// bit-for-bit unchanged.

// CowInsert returns a tree with val stored under key, leaving t
// unchanged, and reports the previous value if the key was present. The
// key bytes are copied into the new leaf. It panics on a key longer than
// MaxKeyLen.
func (t *Tree) CowInsert(key []byte, val uint64) (nu *Tree, old uint64, updated bool) {
	root, old, updated := insert(t.root, key, 0, val, 0)
	size := t.size
	if !updated {
		size++
	}
	return &Tree{root: root, size: size}, old, updated
}

// insert stores val under key below n, whose path covers key[:depth], and
// returns the node that takes n's place. Nodes tagged owner are edited in
// place; every other node on the path is copied first and the copy
// tagged, as is every node made on the way. With owner 0 nothing is
// edited in place: that is CowInsert; a Batch passes its id.
func insert(n *node, key []byte, depth int, val, owner uint64) (*node, uint64, bool) {
	if n == nil {
		return &newLeaf(key, val).node, 0, false
	}
	if n.isLeaf() {
		// Leaves may be shared with a published tree: replace, never edit.
		l := n.leaf()
		lk := l.k()
		if string(lk) == string(key) {
			return &newLeaf(key, val).node, l.val, true
		}
		// Lazy expansion ends here: a new node holds both records below
		// the path they share.
		cp := commonPrefixLen(lk[depth:], key[depth:])
		nn := newInner(Kind4, owner)
		attach(nn, lk, depth+cp, l)
		attach(nn, key, depth+cp, newLeaf(key, val))
		return chain(key[depth:depth+cp], nn, owner), 0, false
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
		nn := newInner(Kind4, owner)
		nn.setPrefix(path[:cp])
		nn.insertChild(path[cp], chain(path[cp+1:], own(end, owner), owner))
		attach(nn, key, depth+cp, newLeaf(key, val))
		return &nn.node, 0, false
	}
	depth += int(h.plen)

	if depth == len(key) {
		c := own(h, owner)
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
		c := withRoom(h, owner)
		c.insertChild(b, &newLeaf(key, val).node)
		return &c.node, 0, false
	}
	newChild, old, updated := insert(child, key, depth+1, val, owner)
	c := own(h, owner)
	*c.slot(b) = newChild
	return &c.node, old, updated
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

// CowDelete returns a tree without key, leaving t unchanged, and reports
// the removed value if the key was present. Inner nodes shrink to smaller
// kinds as they empty and single-child paths re-compress, so a tree that
// empties returns to a nil root. Deleting an absent key returns t itself.
func (t *Tree) CowDelete(key []byte) (nu *Tree, old uint64, ok bool) {
	root, old, ok := remove(t.root, key, 0)
	if !ok {
		return t, 0, false
	}
	return &Tree{root: root, size: t.size - 1}, old, true
}

// remove deletes key below n, whose path covers key[:depth], and returns
// the node that takes n's place: nil when nothing is left, n itself when
// the key is absent, otherwise a copy.
func remove(n *node, key []byte, depth int) (*node, uint64, bool) {
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
		c := own(h, 0)
		c.term = nil
		return compact(c), h.term.val, true
	}

	b := key[depth]
	newChild, old, ok := remove(h.child(b), key, depth+1)
	if !ok {
		return n, 0, false
	}
	if newChild != nil && newChild.isLeaf() && h.isLink() {
		// The chain h belongs to no longer leads to an inner node: it
		// collapses, link by link, into the one record left below it.
		return newChild, old, true
	}
	c := own(h, 0)
	if newChild == nil {
		c.removeChild(b)
		return compact(c), old, true
	}
	*c.slot(b) = newChild
	return &c.node, old, true
}
