package fptree

import (
	"bytes"
	"sort"
)

// innerTree is FPTree's volatile routing structure: a B+-tree of separator
// keys kept entirely in DRAM (paper: "inner nodes are placed in DRAM"),
// mapping a key to the PM leaf whose range covers it. FPTree never merges
// leaves (Section IV.E notes it "does not coalesce a leaf node with its
// neighbor"), so the inner tree only ever inserts.
//
// Routing convention: entry i covers keys in [keys[i], keys[i+1]). The
// first leaf's separator is the empty key, so every key routes somewhere.
type innerTree struct {
	root   *inode
	order  int
	height int
	nodes  int
}

// inode is one volatile B+-tree node.
type inode struct {
	keys [][]byte
	// kids is set on internal nodes (len(kids) == len(keys)).
	kids []*inode
	// vals is set on bottom nodes (len(vals) == len(keys)); each val is an
	// opaque routing target (a PM leaf offset).
	vals []uint64
}

// isBottom reports whether n holds routing targets.
func (n *inode) isBottom() bool { return n.kids == nil }

// newInnerTree returns a routing tree with a single target covering the
// whole key space.
func newInnerTree(order int, firstTarget uint64) *innerTree {
	return &innerTree{
		root:   &inode{keys: [][]byte{{}}, vals: []uint64{firstTarget}},
		order:  order,
		height: 1,
		nodes:  1,
	}
}

// upperBound returns the index of the last key <= k in n.keys. Keys are
// sorted and keys[0] is always a lower bound of the subtree, so the result
// is >= 0 for routable keys.
func upperBound(keys [][]byte, k []byte) int {
	// sort.Search finds the first index with keys[i] > k.
	i := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], k) > 0 })
	return i - 1
}

// Lookup routes key to its target.
func (t *innerTree) Lookup(key []byte) uint64 {
	n := t.root
	for !n.isBottom() {
		n = n.kids[upperBound(n.keys, key)]
	}
	return n.vals[upperBound(n.keys, key)]
}

// Insert adds a new separator (the split key of a freshly split PM leaf)
// routing to target. sep must not already be present.
func (t *innerTree) Insert(sep []byte, target uint64) {
	k := append([]byte(nil), sep...)
	promoted, right := t.insert(t.root, k, target)
	if right != nil {
		// Root split: grow the tree by one level.
		t.root = &inode{
			keys: [][]byte{t.root.minKey(), promoted},
			kids: []*inode{t.root, right},
		}
		t.height++
		t.nodes++
	}
}

// minKey returns a node's lower bound.
func (n *inode) minKey() []byte { return n.keys[0] }

// insert descends to the bottom, inserting and splitting on the way up.
// A non-nil right return means n split; promoted is right's first key.
func (t *innerTree) insert(n *inode, sep []byte, target uint64) (promoted []byte, right *inode) {
	if n.isBottom() {
		i := upperBound(n.keys, sep) + 1
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sep
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = target
	} else {
		i := upperBound(n.keys, sep)
		p, r := t.insert(n.kids[i], sep, target)
		if r != nil {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+2:], n.keys[i+1:])
			n.keys[i+1] = p
			n.kids = append(n.kids, nil)
			copy(n.kids[i+2:], n.kids[i+1:])
			n.kids[i+1] = r
		}
	}
	if len(n.keys) <= t.order {
		return nil, nil
	}
	// Split n in half.
	mid := len(n.keys) / 2
	r := &inode{keys: append([][]byte(nil), n.keys[mid:]...)}
	n.keys = n.keys[:mid:mid]
	if n.isBottom() {
		r.vals = append([]uint64(nil), n.vals[mid:]...)
		n.vals = n.vals[:mid:mid]
	} else {
		r.kids = append([]*inode(nil), n.kids[mid:]...)
		n.kids = n.kids[:mid:mid]
	}
	t.nodes++
	return r.keys[0], r
}

// Stats returns node count and height for DRAM accounting.
func (t *innerTree) Stats() (nodes, height int) { return t.nodes, t.height }

// DRAMBytes estimates the routing tree's volatile footprint.
func (t *innerTree) DRAMBytes() int64 {
	var total int64
	var walk func(n *inode)
	walk = func(n *inode) {
		total += 48 // node header + slice headers
		for _, k := range n.keys {
			total += int64(len(k)) + 24
		}
		if n.isBottom() {
			total += int64(len(n.vals)) * 8
			return
		}
		total += int64(len(n.kids)) * 8
		for _, c := range n.kids {
			walk(c)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return total
}
