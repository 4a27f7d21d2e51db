// Package art implements a volatile Adaptive Radix Tree (Leis et al.,
// ICDE 2013) over byte-string keys of at most MaxKeyLen bytes with uint64
// values.
//
// HART stores all ART internal nodes in DRAM (paper Section III.A.2), so
// this package is an ordinary in-memory structure: adaptive node types
// NODE4/NODE16/NODE48/NODE256, path compression with the whole compressed
// path stored (inline, a few bytes per node, longer paths chained — see
// node.go), lazy expansion (a single-record subtree is just its leaf, so
// a lookup that reaches a leaf always compares the leaf's full key),
// ordered iteration, and node shrinking on delete.
//
// Values are uint64 because HART stores persistent-memory offsets
// (pmem.Ptr) in its ARTs; the package itself is index-agnostic.
//
// Keys may be arbitrary byte strings, including keys that are prefixes of
// other keys: every inner node carries an optional terminator leaf for the
// key that ends exactly at that node.
//
// A tree lives in one of two holders. A Root is one word that a tree is
// published and edited in place through: its writers exclude each other,
// and any number of goroutines may read it meanwhile with no lock, each
// word they load being one that a writer changes only by an atomic store
// (see edit.go). A reader may meet a tree mid-change — one step of an
// insert or delete done, the next not yet — and must learn from elsewhere
// whether a writer came between; HART's shard seqlock tells it. A Tree is
// immutable: CowInsert and CowDelete return a new Tree that shares every
// untouched node with the one it was made from, and a Batch builds one
// from empty in private, committed as a Tree or published into a Root.
package art

import "sync/atomic"

// Kind enumerates the adaptive node types, exported for stats.
type Kind uint8

// Node kinds. KindLeaf counts single-record leaves.
const (
	KindLeaf Kind = iota
	Kind4
	Kind16
	Kind48
	Kind256
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLeaf:
		return "LEAF"
	case Kind4:
		return "NODE4"
	case Kind16:
		return "NODE16"
	case Kind48:
		return "NODE48"
	case Kind256:
		return "NODE256"
	default:
		return "NODE?"
	}
}

// Tree is an immutable adaptive radix tree.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of records.
func (t *Tree) Len() int { return t.size }

// Empty reports whether the tree has no records.
func (t *Tree) Empty() bool { return t.size == 0 }

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) (uint64, bool) { return lookup(t.root, key) }

// Root is an adaptive radix tree edited in place, held in one word; the
// zero Root is empty. Insert and Delete must be serialised by the caller;
// Get and Prefetch may run beside them, and Walk and Stats beside each
// other and Get, but not beside a writer.
type Root struct {
	p atomic.Pointer[node]
}

// Get returns the value stored under key. Beside a writer the answer,
// hit or miss, may be one no single state of the tree held.
func (r *Root) Get(key []byte) (uint64, bool) { return lookup(r.p.Load(), key) }

// Empty reports whether the tree has no records.
func (r *Root) Empty() bool { return r.p.Load() == nil }

// lookup walks from n down key: an inner node's stored prefix is compared
// on the way, the full key at the leaf. Every step checks the key's
// length against the node it is at, so a walk over a tree mid-change
// ends, in a leaf or a miss, whatever it meets.
func lookup(n *node, key []byte) (uint64, bool) {
	depth := 0
	for n != nil {
		if n.isLeaf() {
			l := n.leaf()
			if string(l.k()) == string(key) {
				return l.val, true
			}
			return 0, false
		}
		h := n.inner()
		if !hasPrefix(key[depth:], h) {
			return 0, false
		}
		depth += int(h.plen)
		if depth == len(key) {
			if h.term != nil {
				return h.term.val, true
			}
			return 0, false
		}
		n = h.child(key[depth])
		depth++
	}
	return 0, false
}

// hasPrefix reports whether rest begins with h's stored prefix.
func hasPrefix(rest []byte, h *inner) bool {
	p := h.prefix[:h.plen]
	return len(rest) >= len(p) && string(rest[:len(p)]) == string(p)
}

// commonPrefixLen returns the length of the longest common prefix.
func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Stats summarises the tree's shape for the memory-consumption experiment
// (paper Fig. 10b) and diagnostics.
type Stats struct {
	// Records is the number of stored keys.
	Records int
	// Nodes counts inner nodes by kind (index Kind4..Kind256).
	Node4s, Node16s, Node48s, Node256s int
	// Height is the maximum node depth (leaves included).
	Height int
	// Bytes is the DRAM the tree holds: every leaf, every inner node and,
	// for a Tree, the Tree itself, each at the size class the Go heap
	// allocates it in.
	Bytes int64
	// LeafBytes is the leaves' share of Bytes.
	LeafBytes int64
}

// Stats walks the tree and returns shape statistics.
func (t *Tree) Stats() Stats {
	s := stats(t.root)
	s.Bytes += treeBytes
	return s
}

// Stats walks the tree and returns shape statistics; the Root's own word
// is its holder's to count.
func (r *Root) Stats() Stats { return stats(r.p.Load()) }

// stats returns the shape statistics of the tree below root.
func stats(root *node) Stats {
	var s Stats
	var kinds [Kind256 + 1]int
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		s.Height = max(s.Height, depth)
		kinds[n.meta&kindMask]++
		if n.isLeaf() {
			return
		}
		h := n.inner()
		if h.term != nil {
			kinds[KindLeaf]++
		}
		h.each(0, 255, false, func(_ byte, c *node) bool {
			walk(c, depth+1)
			return true
		})
	}
	if root != nil {
		walk(root, 0)
	}
	s.Records = kinds[KindLeaf]
	s.Node4s, s.Node16s, s.Node48s, s.Node256s = kinds[Kind4], kinds[Kind16], kinds[Kind48], kinds[Kind256]
	for k, n := range kinds {
		s.Bytes += int64(n) * nodeBytes[k]
	}
	s.LeafBytes = int64(s.Records) * nodeBytes[KindLeaf]
	return s
}
