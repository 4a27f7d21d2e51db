package art

import "bytes"

// Walk visits the records with start <= key < end in ascending key order,
// or descending when desc, until fn returns false. A nil start means from
// the smallest key; a nil end means to the largest. It returns false if fn
// cut the walk short.
func (t *Tree) Walk(start, end []byte, desc bool, fn func(key []byte, val uint64) bool) bool {
	return walk(t.root, 0, start, end, desc, fn)
}

// Walk is Tree.Walk over r's tree.
func (r *Root) Walk(start, end []byte, desc bool, fn func(key []byte, val uint64) bool) bool {
	return walk(r.p.Load(), 0, start, end, desc, fn)
}

// walk visits, in key order (reversed when desc), the records of the
// subtree n whose keys lie in [start, end), and reports whether fn let it
// finish. depth is the length of the path above n. A bound is passed down
// only while it can still cut the subtree, that is while the path above n
// equals the bound's first depth bytes; otherwise the subtree lies wholly
// on the bound's inner side and the bound arrives as nil. Because inner
// nodes store their whole compressed path, a subtree that lies wholly
// outside the range is recognised at its root and skipped, and only the
// two boundary leaves are decided by comparing full keys.
func walk(n *node, depth int, start, end []byte, desc bool, fn func(key []byte, val uint64) bool) bool {
	if n == nil {
		return true
	}
	if n.isLeaf() {
		return visit(n.leaf(), start, end, fn)
	}
	h := n.inner()
	prefix := h.prefix[:h.plen]
	if start != nil {
		switch side(prefix, start[depth:]) {
		case -1:
			return true
		case +1:
			start = nil
		}
	}
	if end != nil {
		switch side(prefix, end[depth:]) {
		case -1:
			end = nil
		case +1:
			return true
		}
	}
	depth += len(prefix)

	// A bound still in force is longer than the path and equal to it so
	// far: it excludes the children on the far side of its next byte and
	// goes down with the child under that byte.
	lo, hi := 0, 255
	if start != nil {
		lo = int(start[depth])
	}
	if end != nil {
		hi = int(end[depth])
	}
	// The terminator's key is the path itself, the smallest of the subtree.
	if h.term != nil && !desc && !visit(h.term, start, end, fn) {
		return false
	}
	if !h.each(lo, hi, desc, func(b byte, c *node) bool {
		var s, e []byte
		if int(b) == lo {
			s = start
		}
		if int(b) == hi {
			e = end
		}
		return walk(c, depth+1, s, e, desc, fn)
	}) {
		return false
	}
	return h.term == nil || !desc || visit(h.term, start, end, fn)
}

// side places a subtree against a bound. The path above the subtree
// equals the bound's first bytes; prefix is how the path goes on and rest
// how the bound does. -1: every key of the subtree is below the bound.
// +1: every key is at or above it. 0: the bound is longer than the path
// and still equal to it, so it cuts the subtree.
func side(prefix, rest []byte) int {
	m := min(len(prefix), len(rest))
	if c := bytes.Compare(prefix[:m], rest[:m]); c != 0 {
		return c
	}
	if len(rest) <= len(prefix) {
		return +1
	}
	return 0
}

// visit calls fn for l if its key lies in [start, end).
func visit(l *leaf, start, end []byte, fn func(key []byte, val uint64) bool) bool {
	k := l.k()
	if (start != nil && bytes.Compare(k, start) < 0) || (end != nil && bytes.Compare(k, end) >= 0) {
		return true
	}
	return fn(k, l.val)
}
