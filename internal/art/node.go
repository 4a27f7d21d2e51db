package art

import (
	"sync/atomic"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/cpu"
)

// Node layout. This is the only file of the package that imports unsafe:
// every cast from the common first byte to a concrete node type is here,
// behind a check of that byte's kind, and so is every atomic access to a
// child slot and every cache-line hint.
//
// A child slot is one 8-byte *node. The node it points at is a leaf or
// one of the four inner kinds; all five start with the same byte, whose
// low three bits are the Kind, so dispatch is a load and a switch — no
// interface word, no type switch. The garbage collector needs no help:
// it finds an object's pointer map from the span the object was
// allocated in, not from the static type of the pointer that reached it.
//
//	leaf     32 B  noscan  [klen<<3|kind][23 key bytes][8-byte value]
//	header   16 B          [kind][plen][n:2][4 prefix bytes][term]
//	NODE4    56 B  header + 4 edge bytes (+4 pad) + 4 slots: one cache line
//	NODE16  160 B  header + 16 edge bytes + 16 slots
//	NODE48  656 B  header + 256-byte index in 64 words + 48 slots
//	NODE256 2064 B header + 256 slots
//
// Which words a reader may find changing (see edit.go): a child slot, and
// a NODE48's index words, are written only by atomic stores once the node
// is published, and every reader loads them atomically. Everything else
// in a published node — kind, prefix, terminator, and a NODE4's or
// NODE16's edge bytes and n — is written before the node is published
// and never again. n of a NODE48 or NODE256 is the one exception: the
// writer counts edges it adds and removes in place there, so no reader
// may read it.

const (
	// MaxKeyLen is the longest key a tree stores: what fits a leaf beside
	// its first byte and its value. HART's ART keys are at most
	// core.MaxKeyLen-1 bytes, the directory having consumed at least one.
	MaxKeyLen = 23

	// prefixCap is how many bytes of compressed path an inner node holds
	// inline. A longer shared path continues through links (see chain).
	prefixCap = 4

	kindBits = 3
	kindMask = 1<<kindBits - 1
)

// node is the byte every leaf and inner node begins with.
type node struct {
	// meta is the Kind in its low kindBits bits; a leaf keeps its key
	// length in the bits above.
	meta uint8
}

func (n *node) isLeaf() bool { return n.meta&kindMask == uint8(KindLeaf) }

// leaf returns n as the leaf it is; the caller has checked isLeaf.
func (n *node) leaf() *leaf { return (*leaf)(unsafe.Pointer(n)) }

// inner returns n as the inner-node header it starts with; the caller
// has checked !isLeaf.
func (n *node) inner() *inner { return (*inner)(unsafe.Pointer(n)) }

// leaf is one record: key and value in one pointer-free object of the
// 32-byte size class, so the key compare that ends a lookup lands on the
// cache line holding the value and the collector never scans a record.
// Leaves are immutable; an update replaces the leaf.
type leaf struct {
	node
	key [MaxKeyLen]byte
	val uint64
}

// newLeaf is on every insert's path, so it is where a key that does not
// fit is refused.
func newLeaf(key []byte, val uint64) *leaf {
	if len(key) > MaxKeyLen {
		panic("art: key longer than MaxKeyLen")
	}
	l := &leaf{val: val}
	l.meta = uint8(len(key))<<kindBits | uint8(KindLeaf)
	copy(l.key[:], key)
	return l
}

// k returns the leaf's key, a view into the leaf.
func (l *leaf) k() []byte { return l.key[:l.meta>>kindBits] }

// inner is the header every inner node starts with. prefix[:plen] is the
// compressed path between the parent's edge byte and this node's own
// branching point; term is the record whose key ends exactly there; n
// counts the children (term excluded).
type inner struct {
	node
	plen   uint8
	n      uint16
	prefix [prefixCap]byte
	term   *leaf
}

type node4 struct {
	inner
	keys     [4]byte // edge bytes, ascending
	children [4]*node
}

type node16 struct {
	inner
	keys     [16]byte // edge bytes, ascending
	children [16]*node
}

type node48 struct {
	inner
	// index maps an edge byte to its child slot + 1, 0 for no child: byte
	// b of the map is byte b%4 of word b/4, so that it is read and written
	// as a whole atomic word (see at and setAt).
	index    [64]uint32
	children [48]*node
}

// at returns the index entry of edge byte b.
func (v *node48) at(b byte) int {
	return int(atomic.LoadUint32(&v.index[b/4]) >> (b % 4 * 8) & 0xff)
}

// setAt stores entry s for edge byte b with one atomic store of its word.
func (v *node48) setAt(b byte, s int) {
	w := &v.index[b/4]
	shift := b % 4 * 8
	atomic.StoreUint32(w, atomic.LoadUint32(w)&^(0xff<<shift)|uint32(s)<<shift)
}

type node256 struct {
	inner
	children [256]*node
}

func (h *inner) kind() Kind     { return Kind(h.meta) }
func (h *inner) n4() *node4     { return (*node4)(unsafe.Pointer(h)) }
func (h *inner) n16() *node16   { return (*node16)(unsafe.Pointer(h)) }
func (h *inner) n48() *node48   { return (*node48)(unsafe.Pointer(h)) }
func (h *inner) n256() *node256 { return (*node256)(unsafe.Pointer(h)) }

// load and store are the only accesses to a child slot of a node that may
// be published.
func load(slot **node) *node {
	return (*node)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(slot))))
}

func store(slot **node, c *node) {
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(slot)), unsafe.Pointer(c))
}

// The hints Prefetch's walk issues: each asks the CPU for the line
// holding a node's first byte, a child slot, a NODE48's index word for
// edge byte b or a Root's word, and loads nothing (cpu.Prefetch).
func (n *node) hint()              { cpu.Prefetch(unsafe.Pointer(n)) }
func hintSlot(s **node)            { cpu.Prefetch(unsafe.Pointer(s)) }
func (v *node48) hintIndex(b byte) { cpu.Prefetch(unsafe.Pointer(&v.index[b/4])) }
func (r *Root) hint()              { cpu.Prefetch(unsafe.Pointer(r)) }

// Per-kind limits, indexed by Kind: a node grows to the next kind when it
// is asked to hold more than capacity children and shrinks to the
// previous one when a removal leaves it with shrinkAt or fewer, so a
// NODE16 always has at least 4 children, a NODE48 13 and a NODE256 38.
var (
	capacity = [...]int{Kind4: 4, Kind16: 16, Kind48: 48, Kind256: 256}
	shrinkAt = [...]int{Kind4: 0, Kind16: 3, Kind48: 12, Kind256: 37}
)

// newInner returns an empty node of kind k.
func newInner(k Kind) *inner {
	var h *inner
	switch k {
	case Kind4:
		h = &new(node4).inner
	case Kind16:
		h = &new(node16).inner
	case Kind48:
		h = &new(node48).inner
	case Kind256:
		h = &new(node256).inner
	default:
		panic("art: newInner of a leaf kind")
	}
	h.meta = uint8(k)
	return h
}

// clone copies the node: header, edge bytes or index, and child slots.
// The subtrees and the terminator are shared, not copied.
func (h *inner) clone() *inner {
	switch h.kind() {
	case Kind4:
		c := *h.n4()
		return &c.inner
	case Kind16:
		c := *h.n16()
		return &c.inner
	case Kind48:
		c := *h.n48()
		return &c.inner
	case Kind256:
		c := *h.n256()
		return &c.inner
	}
	panic("art: clone of a node of no inner kind")
}

func (h *inner) setPrefix(p []byte) {
	h.plen = uint8(copy(h.prefix[:], p))
}

// sorted returns the edge bytes and child slots of a NODE4 or NODE16,
// which differ only in width.
func (h *inner) sorted() ([]byte, []*node) {
	if h.kind() == Kind4 {
		v := h.n4()
		return v.keys[:], v.children[:]
	}
	v := h.n16()
	return v.keys[:], v.children[:]
}

// slot returns the address of the child slot for edge byte b, nil when a
// NODE4, NODE16 or NODE48 has no such edge. A NODE256 always has the
// slot; it holds nil when there is no child.
func (h *inner) slot(b byte) **node {
	switch h.kind() {
	case Kind4, Kind16:
		keys, children := h.sorted()
		for i, k := range keys[:h.n] {
			if k == b {
				return &children[i]
			}
		}
	case Kind48:
		v := h.n48()
		if s := v.at(b); s != 0 {
			return &v.children[s-1]
		}
	case Kind256:
		return &h.n256().children[b]
	}
	return nil
}

// child returns the child under edge byte b, or nil.
func (h *inner) child(b byte) *node {
	if s := h.slot(b); s != nil {
		return load(s)
	}
	return nil
}

// each calls fn for every child whose edge byte lies in [lo, hi], in
// ascending edge order (descending when desc), until fn returns false;
// it reports whether every call returned true.
func (h *inner) each(lo, hi int, desc bool, fn func(b byte, c *node) bool) bool {
	switch h.kind() {
	case Kind4, Kind16:
		keys, children := h.sorted()
		for i, n := 0, int(h.n); i < n; i++ {
			j := i
			if desc {
				j = n - 1 - i
			}
			if b := int(keys[j]); b >= lo && b <= hi && !fn(keys[j], load(&children[j])) {
				return false
			}
		}
	case Kind48:
		v := h.n48()
		for i := lo; i <= hi; i++ {
			b := i
			if desc {
				b = lo + hi - i
			}
			if s := v.at(byte(b)); s != 0 && !fn(byte(b), load(&v.children[s-1])) {
				return false
			}
		}
	case Kind256:
		v := h.n256()
		for i := lo; i <= hi; i++ {
			b := i
			if desc {
				b = lo + hi - i
			}
			if c := load(&v.children[b]); c != nil && !fn(byte(b), c) {
				return false
			}
		}
	}
	return true
}

// insertChild adds child under edge byte b, which is not present, to h,
// which has room. A NODE4 or NODE16 must be one no reader can see; a
// NODE48 or NODE256 may be published: its new edge appears to a reader
// with one atomic store, of the slot in a NODE256 and of the index word
// in a NODE48, whose slot is filled first.
func (h *inner) insertChild(b byte, child *node) {
	switch h.kind() {
	case Kind4, Kind16:
		keys, children := h.sorted()
		n := int(h.n)
		i := 0
		for i < n && keys[i] < b {
			i++
		}
		copy(keys[i+1:n+1], keys[i:n])
		copy(children[i+1:n+1], children[i:n])
		keys[i], children[i] = b, child
	case Kind48:
		v := h.n48()
		s := 0
		for v.children[s] != nil {
			s++
		}
		store(&v.children[s], child)
		v.setAt(b, s+1)
	case Kind256:
		store(&h.n256().children[b], child)
	}
	h.n++
}

// removeChild deletes edge byte b, which must be present, from h, under
// the same rule as insertChild: a published NODE48 loses the edge when
// its index word is cleared, and only then is the slot emptied for reuse.
func (h *inner) removeChild(b byte) {
	switch h.kind() {
	case Kind4, Kind16:
		keys, children := h.sorted()
		n := int(h.n)
		i := 0
		for keys[i] != b {
			i++
		}
		copy(keys[i:n-1], keys[i+1:n])
		copy(children[i:n-1], children[i+1:n])
		children[n-1] = nil
	case Kind48:
		v := h.n48()
		s := v.at(b) - 1
		v.setAt(b, 0)
		store(&v.children[s], nil)
	case Kind256:
		store(&h.n256().children[b], nil)
	}
	h.n--
}

// resized returns a copy of h as a node of kind k, which must have room
// for h's children. h is not modified.
func (h *inner) resized(k Kind) *inner {
	d := newInner(k)
	d.plen, d.prefix, d.term = h.plen, h.prefix, h.term
	h.each(0, 255, false, func(b byte, c *node) bool {
		d.insertChild(b, c)
		return true
	})
	return d
}

// isLink reports whether h only carries path bytes: one child and no
// record of its own. Links exist because prefixes are inline and short: a
// compressed path longer than prefixCap continues through a NODE4 that
// holds prefixCap bytes of it and the next byte as its single edge. A
// tree keeps its links canonical — every link is full and leads to
// another inner node, so a path is cut into links from the top and only
// the node that ends the chain has a shorter prefix — which makes a
// tree's shape a function of its keys (up to the kind hysteresis of
// shrinkAt) and its stored path complete: a lookup decides a miss, and a
// range scan prunes, on stored bytes alone.
func (h *inner) isLink() bool { return h.n == 1 && h.term == nil }

// chainPath appends to path the bytes stored from h down to the node
// that ends h's chain — h itself unless it is a link — and returns that
// node.
func chainPath(path []byte, h *inner) ([]byte, *inner) {
	path = append(path, h.prefix[:h.plen]...)
	for h.isLink() {
		v := h.n4()
		path = append(path, v.keys[0])
		h = load(&v.children[0]).inner()
		path = append(path, h.prefix[:h.plen]...)
	}
	return path, h
}

// chain stores path above end, a node no reader can see: each leading
// run of prefixCap+1 bytes becomes a new link, and the at most prefixCap
// bytes left become end's prefix. It returns the top node.
func chain(path []byte, end *inner) *node {
	var top *node
	hole := &top
	for len(path) > prefixCap {
		l := newInner(Kind4)
		l.setPrefix(path[:prefixCap])
		v := l.n4()
		v.keys[0] = path[prefixCap]
		l.n = 1
		*hole = &l.node
		hole = &v.children[0]
		path = path[prefixCap+1:]
	}
	end.setPrefix(path)
	*hole = &end.node
	return top
}

// sizeClasses are the Go allocator's small-object size classes up to the
// one a NODE256 lands in (runtime/sizeclasses.go).
var sizeClasses = [...]uintptr{
	8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224,
	240, 256, 288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768,
	896, 1024, 1152, 1280, 1408, 1536, 1792, 2048, 2304,
}

// heapBytes returns what the Go heap spends on one object of size bytes:
// the size — plus, for an object with pointers above 512 bytes, the
// 8-byte type header the allocator puts in front of it — rounded up to
// its size class. TestStatsBytesMatchHeap holds this to the runtime.
func heapBytes(size uintptr, pointers bool) int64 {
	if pointers && size > 512 {
		size += 8
	}
	for _, c := range sizeClasses {
		if size <= c {
			return int64(c)
		}
	}
	panic("art: object larger than the size-class table")
}

// What Stats charges per object, indexed by Kind, and per Tree.
var (
	nodeBytes = [...]int64{
		KindLeaf: heapBytes(unsafe.Sizeof(leaf{}), false),
		Kind4:    heapBytes(unsafe.Sizeof(node4{}), true),
		Kind16:   heapBytes(unsafe.Sizeof(node16{}), true),
		Kind48:   heapBytes(unsafe.Sizeof(node48{}), true),
		Kind256:  heapBytes(unsafe.Sizeof(node256{}), true),
	}
	treeBytes = heapBytes(unsafe.Sizeof(Tree{}), true)
)
