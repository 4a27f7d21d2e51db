// Package fptree implements FPTree (Oukid et al., SIGMOD 2016), the
// hybrid SCM-DRAM persistent B+-tree the HART paper compares against.
//
// Like HART, FPTree is selective about persistence: inner (routing) nodes
// live in DRAM and are rebuilt on recovery, while leaf nodes live on PM.
// Each PM leaf holds up to LeafCapacity unsorted records, a validity
// bitmap, and one-byte key hashes — the *fingerprints* — scanned before
// any key comparison so that a search probes, in expectation, exactly one
// in-leaf key (the paper's headline trick). Leaves are chained with
// persistent next pointers in key order, which gives FPTree its strong
// range-scan and recovery performance (paper Figs. 10a and 10c) at the
// cost of unsorted-leaf searches (Figs. 5 and 8b).
//
// Commit protocols:
//
//   - Insert: write entry + fingerprint into a free slot, persist, then
//     atomically set the slot's bitmap bit (8-byte store), persist.
//   - Update: write the new entry into a free slot, persist, then commit
//     by swapping old-bit/new-bit in one atomic bitmap store.
//   - Delete: clear the bit in one atomic bitmap store. Leaves are never
//     merged (Section IV.E of the HART paper notes FPTree "does not
//     coalesce a leaf node with its neighbor").
//   - Split: build the new leaf aside, persist it, then link it and prune
//     the moved entries under a persistent split micro-log.
package fptree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/pmart"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// LeafCapacity is the number of records per PM leaf.
const LeafCapacity = 32

// MaxKeyLen and MaxValueLen mirror the other trees' limits.
const (
	MaxKeyLen   = 24
	MaxValueLen = 16
)

// PM leaf layout.
const (
	lfBitmap = 0  // 8B, low LeafCapacity bits
	lfNext   = 8  // 8B leaf-chain pointer
	lfFPs    = 16 // LeafCapacity fingerprint bytes
	lfEntry0 = 48
	// Entry layout: keyLen(1) valLen(1) key(24) val(16) pad(6).
	entrySize  = 48
	enKeyLen   = 0
	enValLen   = 1
	enKey      = 2
	enVal      = 26
	LeafSize   = lfEntry0 + LeafCapacity*entrySize
	bitmapMask = (uint64(1) << LeafCapacity) - 1
)

// Superblock layout.
const (
	sbMagicOff = 0
	sbHeadOff  = 8
	sbLogLeaf  = 16 // split log: leaf being split (armed iff != 0)
	sbLogNew   = 24 // split log: the new leaf
	sbSize     = 32

	fptMagic = 0x4650545245450001 // "FPTREE"
)

// Errors returned by the tree.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("fptree: key not found")
	// ErrBadKey reports an invalid key.
	ErrBadKey = errors.New("fptree: invalid key")
	// ErrBadValue reports an invalid value.
	ErrBadValue = errors.New("fptree: invalid value")
)

// innerOrder is the fanout of the DRAM inner B+-tree.
const innerOrder = 64

// Tree is one FPTree instance.
type Tree struct {
	mu    sync.RWMutex
	arena *pmem.Arena
	na    *pmart.NodeAlloc
	sb    pmem.Ptr
	inner *innerTree
	size  int
}

var (
	_ kv.Index       = (*Tree)(nil)
	_ kv.Recoverable = (*Tree)(nil)
	_ kv.Checkable   = (*Tree)(nil)
)

// fingerprint is the one-byte key hash scanned before key comparisons.
func fingerprint(key []byte) byte {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return byte(h)
}

// New creates an FPTree over a fresh arena.
func New(cfg pmem.Config) (*Tree, error) {
	arena, err := pmem.New(cfg)
	if err != nil {
		return nil, err
	}
	sb, err := arena.Reserve(sbSize, 8)
	if err != nil {
		return nil, err
	}
	t := &Tree{arena: arena, na: pmart.NewNodeAlloc(arena), sb: sb}
	head, err := t.na.Alloc(LeafSize)
	if err != nil {
		return nil, err
	}
	arena.Persist(head, LeafSize)
	arena.WritePtr(sb+sbHeadOff, head)
	arena.Write8(sb+sbLogLeaf, 0)
	arena.Write8(sb+sbLogNew, 0)
	arena.Write8(sb+sbMagicOff, fptMagic)
	arena.Persist(sb, sbSize)
	t.inner = newInnerTree(innerOrder, uint64(head))
	return t, nil
}

// Open attaches to an existing arena, completes any interrupted split and
// rebuilds the DRAM inner tree from the persistent leaf chain.
func Open(arena *pmem.Arena) (*Tree, error) {
	sb := pmem.Ptr(pmem.HeaderSize)
	if arena.Reserved() < pmem.HeaderSize+sbSize || arena.Read8(sb+sbMagicOff) != fptMagic {
		return nil, errors.New("fptree: no tree in arena")
	}
	t := &Tree{arena: arena, na: pmart.NewNodeAlloc(arena), sb: sb}
	if err := t.recoverSplitLog(); err != nil {
		return nil, err
	}
	if err := t.Rebuild(); err != nil {
		return nil, err
	}
	return t, nil
}

// Name implements kv.Index.
func (t *Tree) Name() string { return "FPTree" }

// Arena implements kv.Index.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// Len implements kv.Index.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Close implements kv.Index.
func (t *Tree) Close() error { return nil }

// SizeInfo implements kv.Index.
func (t *Tree) SizeInfo() kv.SizeInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return kv.SizeInfo{
		PMBytes:   t.arena.Reserved(),
		DRAMBytes: t.inner.DRAMBytes(),
	}
}

// head returns the first leaf of the chain.
func (t *Tree) head() pmem.Ptr { return t.arena.ReadPtr(t.sb + sbHeadOff) }

// validate enforces the key/value contract.
func validate(key, value []byte, needValue bool) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrBadKey, len(key))
	}
	if needValue && (len(value) == 0 || len(value) > MaxValueLen) {
		return fmt.Errorf("%w: %d bytes", ErrBadValue, len(value))
	}
	return nil
}

// entryAddr returns the PM address of slot i's entry.
func (t *Tree) entryAddr(leaf pmem.Ptr, i int) pmem.Ptr {
	return leaf + lfEntry0 + pmem.Ptr(i*entrySize)
}

// readEntryKey copies slot i's key into dst, grown only if its capacity
// is short.
func (t *Tree) readEntryKey(leaf pmem.Ptr, i int, dst []byte) []byte {
	e := t.entryAddr(leaf, i)
	n := min(int(t.arena.Read1(e+enKeyLen)), MaxKeyLen)
	dst = slices.Grow(dst[:0], n)[:n]
	t.arena.ReadAt(e+enKey, dst)
	return dst
}

// readEntryValue copies slot i's value into dst, grown only if its
// capacity is short.
func (t *Tree) readEntryValue(leaf pmem.Ptr, i int, dst []byte) []byte {
	e := t.entryAddr(leaf, i)
	n := min(int(t.arena.Read1(e+enValLen)), MaxValueLen)
	dst = slices.Grow(dst[:0], n)[:n]
	t.arena.ReadAt(e+enVal, dst)
	return dst
}

// writeEntry fills slot i (entry + fingerprint) and persists both.
func (t *Tree) writeEntry(leaf pmem.Ptr, i int, key, value []byte) {
	e := t.entryAddr(leaf, i)
	t.arena.Write1(e+enKeyLen, byte(len(key)))
	t.arena.Write1(e+enValLen, byte(len(value)))
	t.arena.WriteAt(e+enKey, key)
	t.arena.WriteAt(e+enVal, value)
	t.arena.Persist(e, entrySize)
	t.arena.Write1(leaf+lfFPs+pmem.Ptr(i), fingerprint(key))
	t.arena.Persist(leaf+lfFPs+pmem.Ptr(i), 1)
}

// findInLeaf scans fingerprints first (the FPTree trick), comparing keys
// only on fingerprint hits, through a stack buffer. Returns the slot index
// or -1.
func (t *Tree) findInLeaf(leaf pmem.Ptr, key []byte) int {
	bm := t.arena.Read8(leaf + lfBitmap)
	if bm == 0 {
		return -1
	}
	fp := fingerprint(key)
	var fps [LeafCapacity]byte
	t.arena.ReadAt(leaf+lfFPs, fps[:])
	var buf [MaxKeyLen]byte
	for i := 0; i < LeafCapacity; i++ {
		if bm&(1<<uint(i)) == 0 || fps[i] != fp {
			continue
		}
		if bytes.Equal(t.readEntryKey(leaf, i, buf[:0]), key) {
			return i
		}
	}
	return -1
}

// freeSlot returns a free slot index in the leaf, or -1 when full.
func (t *Tree) freeSlot(leaf pmem.Ptr) int {
	bm := t.arena.Read8(leaf+lfBitmap) & bitmapMask
	for i := 0; i < LeafCapacity; i++ {
		if bm&(1<<uint(i)) == 0 {
			return i
		}
	}
	return -1
}

// setBitmap atomically publishes a new validity bitmap.
func (t *Tree) setBitmap(leaf pmem.Ptr, bm uint64) {
	t.arena.Write8(leaf+lfBitmap, bm)
	t.arena.Persist(leaf+lfBitmap, 8)
}
