// Package hashdir implements the DRAM hash table at the top of HART
// (paper Fig. 1): it maps hash keys — the first kh bytes of each record
// key — to their ARTs.
//
// A hash key is at most MaxKeyLen bytes, so the table is a radix array over
// the key bytes: its hash is the identity, with no collisions (Section
// III.A.1). Nodes, one per key prefix, are made on first use and never
// move. A published page is never written again: Put and Delete publish a
// changed copy with one atomic store. An entry that never moves needs no
// snapshot to be read safely (IcebergHT's stability), so Get, Seek,
// SeekBelow, Range, Len and DRAMBytes run beside one writer, each seeing
// every page whole. HART serialises writers under its directory mutex.
package hashdir

import (
	"bytes"
	"sync/atomic"
	"unsafe"
)

// MaxKeyLen bounds hash-key length: at 3, pages for the 62² two-byte
// prefixes of HART's alphabet take 8 MB; at 4 each shard needs its own.
const MaxKeyLen = 3

// page holds the values of the keys that differ only in their last byte b,
// present where bit b of bits is set.
type page[V any] struct {
	bits [4]uint64
	vals [256]V
}

// has reports whether the key ending in b is present; a nil page is empty.
func (p *page[V]) has(b byte) bool { return p != nil && p.bits[b>>6]&(1<<(b&63)) != 0 }

// node stands for one key prefix: page holds the keys one byte longer, and
// kids[b] stands for the prefix extended by b. The kids array is allocated
// when the first key two or more bytes longer than the prefix arrives.
type node[V any] struct {
	page atomic.Pointer[page[V]]
	kids atomic.Pointer[[256]atomic.Pointer[node[V]]]
}

// kid returns the node for the prefix extended by b, or nil.
func (n *node[V]) kid(b byte) *node[V] {
	if kids := n.kids.Load(); kids != nil {
		return kids[b].Load()
	}
	return nil
}

// Table maps keys of 1 to MaxKeyLen bytes to values of type V. Keys order
// bytewise, so a key comes right before the keys it prefixes.
type Table[V any] struct {
	root  node[V]
	len   atomic.Int64
	bytes atomic.Int64 // the nodes, kids arrays and pages below root
}

// New returns an empty table.
func New[V any]() *Table[V] { return &Table[V]{} }

// NewFromSorted builds a table holding values[i] under keys[i], filling
// pages no reader can see yet in place. The keys may come in any order; a
// duplicate panics. The name predates that freedom and stays because the
// benchmark module calls it.
func NewFromSorted[V any](keys []string, values []V) *Table[V] {
	if len(keys) != len(values) {
		panic("hashdir: NewFromSorted keys/values length mismatch")
	}
	t := New[V]()
	for i, k := range keys {
		if !t.write([]byte(k), values[i], true, true) {
			panic("hashdir: NewFromSorted duplicate key " + k)
		}
	}
	return t
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return int(t.len.Load()) }

// Get returns the value stored under key.
func (t *Table[V]) Get(key []byte) (v V, ok bool) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return v, false
	}
	n := &t.root
	for _, b := range key[:len(key)-1] {
		if n = n.kid(b); n == nil {
			return v, false
		}
	}
	if p, b := n.page.Load(), key[len(key)-1]; p.has(b) {
		return p.vals[b], true
	}
	return v, false
}

// Put stores v under key, reporting whether the key was new.
func (t *Table[V]) Put(key []byte, v V) bool { return t.write(key, v, true, false) }

// Delete removes key, reporting whether it was present.
func (t *Table[V]) Delete(key []byte) bool {
	var zero V
	_, ok := t.Get(key) // first, so that no node is made for an absent key
	return ok && t.write(key, zero, false, false)
}

// write stores v under key (set) or removes key (!set) in a copy of key's
// page, or in the page itself when no reader can see the table yet
// (private), and publishes the page; a page left empty is dropped. It
// creates the nodes on key's path and reports whether key's presence
// changed.
func (t *Table[V]) write(key []byte, v V, set, private bool) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		panic("hashdir: key length outside 1..MaxKeyLen")
	}
	n := &t.root
	for _, b := range key[:len(key)-1] {
		if n.kids.Load() == nil {
			n.kids.Store(new([256]atomic.Pointer[node[V]]))
			t.bytes.Add(int64(unsafe.Sizeof(*n.kids.Load())))
		}
		if n.kid(b) == nil {
			n.kids.Load()[b].Store(new(node[V]))
			t.bytes.Add(int64(unsafe.Sizeof(*n)))
		}
		n = n.kid(b)
	}
	p := n.page.Load()
	if p == nil {
		p = new(page[V])
		t.bytes.Add(int64(unsafe.Sizeof(*p)))
	} else if !private {
		cp := *p
		p = &cp
	}
	b := key[len(key)-1]
	had := p.has(b)
	p.bits[b>>6] &^= 1 << (b & 63)
	if set {
		p.bits[b>>6] |= 1 << (b & 63)
	}
	p.vals[b] = v
	if p.bits == [4]uint64{} {
		t.bytes.Add(-int64(unsafe.Sizeof(*p)))
		p = nil
	}
	n.page.Store(p)
	if had == set {
		return false
	}
	if set {
		t.len.Add(1)
	} else {
		t.len.Add(-1)
	}
	return true
}

// Seek returns the first entry whose key is >= k; a nil k is below every
// key. The returned key is the caller's.
func (t *Table[V]) Seek(k []byte) ([]byte, V, bool) { return t.first(k, false) }

// SeekBelow returns the last entry whose key is < k; a nil k is above
// every key. The returned key is the caller's.
func (t *Table[V]) SeekBelow(k []byte) ([]byte, V, bool) { return t.first(k, true) }

// first returns the first entry a walk from bound meets.
func (t *Table[V]) first(bound []byte, desc bool) (key []byte, v V, ok bool) {
	var buf [MaxKeyLen]byte
	t.root.walk(&buf, 0, bound, desc, func(ek []byte, ev V) bool {
		key, v, ok = bytes.Clone(ek), ev, true
		return false
	})
	return key, v, ok
}

// Range calls fn on every entry in key order until fn returns false. The
// key passed to fn is valid only during the call.
func (t *Table[V]) Range(fn func(key []byte, v V) bool) {
	var buf [MaxKeyLen]byte
	t.root.walk(&buf, 0, nil, false, fn)
}

// walk calls fn on the entries under n, which stands for key[:d], until fn
// returns false, and reports whether fn never did. Ascending, it visits
// the keys >= key[:d]+bound in key order; descending (desc), the keys <
// key[:d]+bound in reverse order, all of them when bound is nil.
func (n *node[V]) walk(key *[MaxKeyLen]byte, d int, bound []byte, desc bool, fn func([]byte, V) bool) bool {
	if desc && bound != nil && len(bound) == 0 {
		return true // every key here extends the bound
	}
	p := n.page.Load()
	x, step := 0, 1
	if desc {
		x, step = 255, -1
	}
	if len(bound) > 0 {
		x = int(bound[0])
	}
	for ; x >= 0 && x < 256; x += step {
		key[d] = byte(x)
		var rest []byte // non-nil on the bound's path
		if len(bound) > 0 && x == int(bound[0]) {
			rest = bound[1:]
		}
		// key[:d+1] is beyond the bound when it is a proper prefix of the
		// bound (ascending) or the bound itself (descending).
		beyond := len(rest) > 0
		if desc {
			beyond = rest != nil && len(rest) == 0
		}
		in := !beyond && p.has(byte(x))
		if !desc && in && !fn(key[:d+1], p.vals[x]) {
			return false
		}
		if c := n.kid(byte(x)); c != nil && !c.walk(key, d+1, rest, desc, fn) {
			return false
		}
		if desc && in && !fn(key[:d+1], p.vals[x]) {
			return false
		}
	}
	return true
}

// Clone returns a table with t's entries that either side may change
// without the other seeing it: it copies the nodes and shares the pages,
// which are never written once published. Only the benchmark's
// hashdir.clone_ns kernel calls it.
func (t *Table[V]) Clone() *Table[V] {
	c := &Table[V]{}
	c.len.Store(t.len.Load())
	c.bytes.Store(t.bytes.Load())
	c.root.copy(&t.root)
	return c
}

// copy makes n a copy of src that shares src's pages.
func (n *node[V]) copy(src *node[V]) {
	n.page.Store(src.page.Load())
	if src.kids.Load() != nil {
		n.kids.Store(new([256]atomic.Pointer[node[V]]))
		for b := 0; b < 256; b++ {
			if c := src.kid(byte(b)); c != nil {
				n.kids.Load()[b].Store(new(node[V]))
				n.kid(byte(b)).copy(c)
			}
		}
	}
}

// DRAMBytes reports the table's memory footprint from the Go layout of its
// parts (Fig. 10b accounting): the table, each node below the root, each
// kids array and each page. A page two tables share counts in each.
func (t *Table[V]) DRAMBytes() int64 { return int64(unsafe.Sizeof(*t)) + t.bytes.Load() }
