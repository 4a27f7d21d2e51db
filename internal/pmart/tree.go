package pmart

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// Superblock layout (the arena's first reservation): a magic word naming
// the tree's commit protocol, then the persistent root pointer.
const (
	sbMagicOff = 0
	sbRootOff  = 8
	sbSize     = 16
)

// Errors returned by the trees.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("pmart: key not found")
	// ErrBadKey reports an empty, oversized or zero-containing key.
	ErrBadKey = errors.New("pmart: invalid key")
	// ErrBadValue reports an empty or oversized value.
	ErrBadValue = errors.New("pmart: invalid value")
)

// kind is one commit protocol over the shared layout: the tree's name and
// the superblock magic that marks its images, so each tree's Open refuses
// the other's.
type kind struct {
	name  string
	magic uint64
}

var (
	woartKind = kind{"WOART", 0x574f415254000001}   // "WOART"
	cowKind   = kind{"ART+CoW", 0x434f574152540001} // "COWART"
)

// tree is what WOART and CoW share: the superblock and its root word, the
// node allocator, the record count and the lock, and every operation that
// does not change the tree's structure. Each tree embeds it and adds its
// own Put and Delete.
type tree struct {
	mu    sync.RWMutex
	arena *pmem.Arena
	na    *NodeAlloc
	sb    pmem.Ptr
	size  int
	kind  kind
}

// newTree formats a fresh arena for a tree of kind k.
func newTree(cfg pmem.Config, k kind) (*tree, error) {
	arena, err := pmem.New(cfg)
	if err != nil {
		return nil, err
	}
	sb, err := arena.Reserve(sbSize, 8)
	if err != nil {
		return nil, err
	}
	arena.Write8(sb+sbRootOff, 0)
	arena.Write8(sb+sbMagicOff, k.magic)
	arena.Persist(sb, sbSize)
	return &tree{arena: arena, na: NewNodeAlloc(arena), sb: sb, kind: k}, nil
}

// openTree attaches to an arena holding a tree of kind k. The whole tree
// is on PM, so there is nothing to rebuild: only the volatile record
// count is re-derived.
func openTree(arena *pmem.Arena, k kind) (*tree, error) {
	sb := pmem.Ptr(pmem.HeaderSize)
	if arena.Reserved() < pmem.HeaderSize+sbSize || arena.Read8(sb+sbMagicOff) != k.magic {
		return nil, fmt.Errorf("pmart: no %s in arena", k.name)
	}
	t := &tree{arena: arena, na: NewNodeAlloc(arena), sb: sb, kind: k}
	t.size = countRecords(arena, t.root())
	return t, nil
}

// Name implements kv.Index.
func (t *tree) Name() string { return t.kind.name }

// Arena implements kv.Index.
func (t *tree) Arena() *pmem.Arena { return t.arena }

// Close implements kv.Index.
func (t *tree) Close() error { return nil }

// SizeInfo implements kv.Index: everything is on PM.
func (t *tree) SizeInfo() kv.SizeInfo { return kv.SizeInfo{PMBytes: t.arena.Reserved()} }

// Len implements kv.Index.
func (t *tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// root loads the persistent root pointer.
func (t *tree) root() pmem.Ptr { return t.arena.ReadPtr(t.rootSlot()) }

// rootSlot is the PM address of the root pointer.
func (t *tree) rootSlot() pmem.Ptr { return t.sb + sbRootOff }

// GetInto implements kv.Index: a search with final leaf verification that
// copies the value into dst.
func (t *tree) GetInto(key, dst []byte) ([]byte, bool) {
	if validate(key, nil, false) != nil {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := lookup(t.arena, t.root(), key)
	if leaf.IsNil() {
		return nil, false
	}
	v := readLeafValue(t.arena, leaf, dst)
	return v, v != nil
}

// Scan implements kv.Index: in-order traversal with [start, end) filter.
func (t *tree) Scan(start, end []byte, fn func(key, value []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	walk(t.arena, t.root(), start, end, fn)
}

// Update implements kv.Index: overwrite an existing record only.
func (t *tree) Update(key, value []byte) error {
	if err := validate(key, value, true); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := lookup(t.arena, t.root(), key)
	if leaf.IsNil() {
		return ErrNotFound
	}
	return t.updateLeaf(leaf, value)
}

// updateLeaf swings a leaf to a freshly persisted value object with one
// atomic value-word store, then frees the old object: the update the
// paper uses for HART, WOART and ART+CoW alike (Section IV.B). There is
// no update log, so a crash after the allocation but before the swing
// leaks the new object, the exposure the paper contrasts with HART.
func (t *tree) updateLeaf(leaf pmem.Ptr, value []byte) error {
	w, err := t.newValue(value)
	if err != nil {
		return err
	}
	old := t.arena.Read8(leaf + leafValueWord)
	t.arena.Write8(leaf+leafValueWord, w)
	t.arena.Persist(leaf+leafValueWord, 8)
	t.freeValue(old)
	return nil
}

// newValue allocates, writes and persists a value object, returning the
// packed leaf value word.
func (t *tree) newValue(value []byte) (uint64, error) {
	vp, err := t.na.Alloc(valueSize(len(value)))
	if err != nil {
		return 0, err
	}
	t.arena.WriteAt(vp, value)
	t.arena.Persist(vp, len(value))
	return packValue(vp, len(value)), nil
}

// freeValue releases the value object of leaf value word w.
func (t *tree) freeValue(w uint64) {
	if vp, n := unpackValue(w); !vp.IsNil() {
		t.na.Free(vp, valueSize(n))
	}
}

// newLeaf builds a persisted leaf holding key and a fresh value object.
func (t *tree) newLeaf(key, value []byte) (pmem.Ptr, error) {
	w, err := t.newValue(value)
	if err != nil {
		return pmem.Nil, err
	}
	return buildLeaf(t.arena, t.na, key, w)
}

// Check verifies structural invariants: leaves appear in strictly
// ascending key order, every leaf is reachable by its own key, and the
// record count matches.
func (t *tree) Check() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return checkTree(t.arena, t.root(), t.size, t.kind.name)
}

// validate enforces the key/value contract.
func validate(key, value []byte, needValue bool) error {
	if len(key) == 0 || len(key) > maxKeyLen || bytes.IndexByte(key, 0) >= 0 {
		return fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if needValue && (len(value) == 0 || len(value) > 16) {
		return fmt.Errorf("%w: %d bytes", ErrBadValue, len(value))
	}
	return nil
}

// valueSize rounds a value length to its PM block size.
func valueSize(n int) int64 {
	if n <= 8 {
		return 8
	}
	return 16
}

// commonPrefixLen returns the longest common prefix length of a and b.
func commonPrefixLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// terminated returns key with the internal zero terminator appended,
// making the indexed key set prefix-free.
func terminated(key []byte) []byte {
	tk := make([]byte, len(key)+1)
	copy(tk, key)
	return tk
}

// lookup descends from root to the leaf holding key, or Nil. The final
// leaf comparison also covers optimistically skipped prefix bytes. It
// allocates nothing: the terminated key and each node's prefix are read
// into stack buffers.
func lookup(a *pmem.Arena, root pmem.Ptr, key []byte) pmem.Ptr {
	if len(key) > maxKeyLen {
		return pmem.Nil
	}
	var tkBuf [maxKeyLen + 1]byte
	tk := tkBuf[:len(key)+1]
	copy(tk, key)
	var prefix [maxStoredPrefix]byte
	n := root
	depth := 0
	for !n.IsNil() {
		if isLeaf(n) {
			leaf := untag(n)
			if leafMatches(a, leaf, key) {
				return leaf
			}
			return pmem.Nil
		}
		full, stored := readPrefix(a, n, &prefix)
		if len(tk)-depth < full {
			return pmem.Nil
		}
		if !bytes.Equal(stored, tk[depth:depth+len(stored)]) {
			return pmem.Nil
		}
		depth += full
		if depth >= len(tk) {
			return pmem.Nil
		}
		_, child := findChild(a, n, tk[depth])
		n = child
		depth++
	}
	return pmem.Nil
}

// minLeaf returns the smallest leaf under n, or Nil.
func minLeaf(a *pmem.Arena, n pmem.Ptr) pmem.Ptr {
	for !n.IsNil() && !isLeaf(n) {
		edges := edgesOf(a, n)
		if len(edges) == 0 {
			return pmem.Nil
		}
		n = edges[0].Child
	}
	return untag(n)
}

// realPrefix recovers the full prefix bytes of node n at tree depth
// `depth` by consulting the minimum leaf below it; needed whenever
// full > maxStoredPrefix.
func realPrefix(a *pmem.Arena, n pmem.Ptr, depth, full int) []byte {
	leaf := minLeaf(a, n)
	if leaf.IsNil() {
		return nil
	}
	tk := terminated(leafKeyBytes(a, leaf))
	if depth+full > len(tk) {
		full = len(tk) - depth
	}
	if full < 0 {
		return nil
	}
	return tk[depth : depth+full]
}

// fullPrefix returns a node's complete prefix bytes, reading the header
// when it fits and falling back to realPrefix when it does not.
func fullPrefix(a *pmem.Arena, n pmem.Ptr, depth int) []byte {
	var buf [maxStoredPrefix]byte
	full, stored := readPrefix(a, n, &buf)
	if full <= len(stored) {
		return bytes.Clone(stored)
	}
	return realPrefix(a, n, depth, full)
}

// readLeafValue copies a leaf's value into dst, grown only if its
// capacity is short, and returns it; nil when the leaf holds no value.
func readLeafValue(a *pmem.Arena, leaf pmem.Ptr, dst []byte) []byte {
	vp, n := unpackValue(a.Read8(leaf + leafValueWord))
	if vp.IsNil() || n <= 0 {
		return nil
	}
	dst = slices.Grow(dst[:0], n)[:n]
	a.ReadAt(vp, dst)
	return dst
}

// walk visits leaves under n in ascending key order, applying the
// [start, end) filter and stopping when fn returns false or end is
// passed. Returns false when the walk was cut short.
func walk(a *pmem.Arena, n pmem.Ptr, start, end []byte, fn func(k, v []byte) bool) bool {
	if n.IsNil() {
		return true
	}
	if isLeaf(n) {
		leaf := untag(n)
		k := leafKeyBytes(a, leaf)
		if start != nil && bytes.Compare(k, start) < 0 {
			return true
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return false
		}
		return fn(k, readLeafValue(a, leaf, nil))
	}
	for _, e := range edgesOf(a, n) {
		if !walk(a, e.Child, start, end, fn) {
			return false
		}
	}
	return true
}

// countRecords sizes the subtree under n.
func countRecords(a *pmem.Arena, n pmem.Ptr) int {
	if n.IsNil() {
		return 0
	}
	if isLeaf(n) {
		return 1
	}
	c := 0
	for _, e := range edgesOf(a, n) {
		c += countRecords(a, e.Child)
	}
	return c
}

// checkTree validates structural invariants of the tree at root: leaves
// appear in strictly ascending key order, every leaf's key routes back to
// that leaf, and the record count matches size.
func checkTree(a *pmem.Arena, root pmem.Ptr, size int, name string) error {
	var prev []byte
	count := 0
	var verify func(n pmem.Ptr) error
	verify = func(n pmem.Ptr) error {
		if n.IsNil() {
			return nil
		}
		if isLeaf(n) {
			k := leafKeyBytes(a, untag(n))
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("%s: keys out of order: %q then %q", name, prev, k)
			}
			prev = append(prev[:0], k...)
			count++
			if got := lookup(a, root, k); got != untag(n) {
				return fmt.Errorf("%s: leaf %q not reachable by its own key", name, k)
			}
			return nil
		}
		for _, e := range edgesOf(a, n) {
			if err := verify(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := verify(root); err != nil {
		return err
	}
	if count != size {
		return fmt.Errorf("%s: traversal found %d records, size counter says %d", name, count, size)
	}
	return nil
}
