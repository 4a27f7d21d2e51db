// Package pmart holds the two pure-PM radix-tree baselines of the HART
// paper's evaluation, WOART and ART+CoW (both from Lee et al., FAST 2017),
// over one shared node layer and one shared tree type. The two trees
// differ only in how a structural change commits: WOART with ordered
// in-place stores, ART+CoW with a path copy and one root swap.
//
// Unlike HART — which keeps internal nodes in DRAM — these trees place
// every node on PM, addressed by pmem.Ptr offsets. The node layouts mirror
// the adaptive kinds of ART:
//
//	NODE4    header + packed slot word (4 keys + valid nibble) + 4 children
//	NODE16   header + 16-bit valid bitmap + 16 keys + 16 children
//	NODE48   header + 48-bit slot bitmap + 256-byte index + 48 children
//	NODE256  header + 256 children
//
// The 8-byte header holds the node type and a compressed path segment of
// up to 6 stored prefix bytes (longer prefixes keep their true length and
// are verified against the full key stored in the leaf, the standard
// hybrid path-compression scheme).
//
// Child pointers are tagged: leaves carry bit 0 set, so a single load
// distinguishes leaf from inner node. All child-pointer fields are 8-byte
// aligned, making pointer swaps failure-atomic.
//
// Keys handed to these trees must not contain 0x00: like the libart-based
// implementations the paper builds on (which index C strings), the trees
// append a terminating zero byte internally so no key is a prefix of
// another.
//
// Neither tree needs a rebuild after a crash (the paper's Fig. 10c notes
// pure-PM trees skip recovery), but NodeAlloc cannot tell which freed or
// in-flight blocks were lost, so a crash can leak PM: the exposure the
// paper contrasts with EPallocator's bitmaps.
package pmart

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// Node types stored in the first header byte.
const (
	typeNode4 byte = iota + 1
	typeNode16
	typeNode48
	typeNode256
)

// maxStoredPrefix is the number of prefix bytes kept in the node header.
const maxStoredPrefix = 6

// maxKeyLen mirrors HART's 24-byte key bound; with the internal
// terminator a traversal consumes at most maxKeyLen+1 bytes.
const maxKeyLen = 24

// Node sizes in bytes.
const (
	node4Size   = 8 + 8 + 4*8        // 48
	node16Size  = 8 + 8 + 16 + 16*8  // 160
	node48Size  = 8 + 8 + 256 + 48*8 // 656
	node256Size = 8 + 256*8          // 2056
	leafSize    = 40                 // valueWord(8) + keyLen(1) + key(24) + pad
)

// Header field offsets.
const (
	offType      = 0
	offPrefixLen = 1
	offPrefix    = 2
)

// Per-kind field offsets.
const (
	n4SlotWord   = 8 // bytes 0-3 keys, byte 4 valid nibble
	n4Children   = 16
	n16Bitmap    = 8 // low 16 bits
	n16Keys      = 16
	n16Children  = 32
	n48Bitmap    = 8 // low 48 bits
	n48Index     = 16
	n48Children  = 272
	n256Children = 8
)

// Leaf field offsets (same packing as HART's leaf: bits 0-55 of the value
// word are the value-object offset, bits 56-63 its length).
const (
	leafValueWord = 0
	leafKeyLen    = 8
	leafKey       = 9
)

// packValue encodes a value pointer and length into a leaf value word.
func packValue(p pmem.Ptr, n int) uint64 {
	return uint64(p)&((1<<56)-1) | uint64(n)<<56
}

// unpackValue decodes a leaf value word.
func unpackValue(w uint64) (pmem.Ptr, int) {
	return pmem.Ptr(w & ((1 << 56) - 1)), int(w >> 56)
}

// tagLeaf marks a pointer as referencing a leaf.
func tagLeaf(p pmem.Ptr) pmem.Ptr { return p | 1 }

// isLeaf reports whether a tagged pointer references a leaf.
func isLeaf(p pmem.Ptr) bool { return p&1 != 0 }

// untag strips the leaf tag.
func untag(p pmem.Ptr) pmem.Ptr { return p &^ 1 }

// nodeType reads an inner node's type byte.
func nodeType(a *pmem.Arena, n pmem.Ptr) byte { return a.Read1(n + offType) }

// sizeOf returns the byte size of the node kind.
func sizeOf(typ byte) int64 {
	switch typ {
	case typeNode4:
		return node4Size
	case typeNode16:
		return node16Size
	case typeNode48:
		return node48Size
	case typeNode256:
		return node256Size
	default:
		panic(fmt.Sprintf("pmart: unknown node type %d", typ))
	}
}

// writeHeader initialises a node's header (caller persists).
func writeHeader(a *pmem.Arena, n pmem.Ptr, typ byte, prefix []byte) {
	a.Write1(n+offType, typ)
	a.Write1(n+offPrefixLen, byte(len(prefix)))
	stored := prefix
	if len(stored) > maxStoredPrefix {
		stored = stored[:maxStoredPrefix]
	}
	var buf [maxStoredPrefix]byte
	copy(buf[:], stored)
	a.WriteAt(n+offPrefix, buf[:])
}

// readPrefix returns a node's full prefix length and the stored prefix
// bytes (at most maxStoredPrefix of them), read into buf.
func readPrefix(a *pmem.Arena, n pmem.Ptr, buf *[maxStoredPrefix]byte) (full int, stored []byte) {
	full = int(a.Read1(n + offPrefixLen))
	stored = buf[:min(full, maxStoredPrefix)]
	a.ReadAt(n+offPrefix, stored)
	return full, stored
}

// findChild locates the child under edge byte b. It returns the PM address
// of the child-pointer slot (for atomic replacement) and the tagged child
// pointer, or (Nil, Nil) when absent.
func findChild(a *pmem.Arena, n pmem.Ptr, b byte) (slotAddr, child pmem.Ptr) {
	switch nodeType(a, n) {
	case typeNode4:
		w := a.Read8(n + n4SlotWord)
		valid := byte(w >> 32)
		for i := 0; i < 4; i++ {
			if valid&(1<<uint(i)) != 0 && byte(w>>(8*uint(i))) == b {
				addr := n + n4Children + pmem.Ptr(i*8)
				return addr, a.ReadPtr(addr)
			}
		}
	case typeNode16:
		bm := a.Read8(n + n16Bitmap)
		var keys [16]byte
		a.ReadAt(n+n16Keys, keys[:])
		for i := 0; i < 16; i++ {
			if bm&(1<<uint(i)) != 0 && keys[i] == b {
				addr := n + n16Children + pmem.Ptr(i*8)
				return addr, a.ReadPtr(addr)
			}
		}
	case typeNode48:
		if s := a.Read1(n + n48Index + pmem.Ptr(b)); s != 0 {
			addr := n + n48Children + pmem.Ptr(int(s-1)*8)
			return addr, a.ReadPtr(addr)
		}
	case typeNode256:
		addr := n + n256Children + pmem.Ptr(int(b)*8)
		if c := a.ReadPtr(addr); !c.IsNil() {
			return addr, c
		}
	}
	return pmem.Nil, pmem.Nil
}

// edge pairs an edge byte with its tagged child pointer.
type edge struct {
	Byte  byte
	Child pmem.Ptr
}

// edgesOf returns a node's populated edges in ascending key-byte order.
func edgesOf(a *pmem.Arena, n pmem.Ptr) []edge {
	var out []edge
	switch nodeType(a, n) {
	case typeNode4:
		w := a.Read8(n + n4SlotWord)
		valid := byte(w >> 32)
		for i := 0; i < 4; i++ {
			if valid&(1<<uint(i)) != 0 {
				out = append(out, edge{byte(w >> (8 * uint(i))), a.ReadPtr(n + n4Children + pmem.Ptr(i*8))})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Byte < out[j].Byte })
	case typeNode16:
		bm := a.Read8(n + n16Bitmap)
		var keys [16]byte
		a.ReadAt(n+n16Keys, keys[:])
		for i := 0; i < 16; i++ {
			if bm&(1<<uint(i)) != 0 {
				out = append(out, edge{keys[i], a.ReadPtr(n + n16Children + pmem.Ptr(i*8))})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Byte < out[j].Byte })
	case typeNode48:
		var idx [256]byte
		a.ReadAt(n+n48Index, idx[:])
		var kids [48 * 8]byte
		a.ReadAt(n+n48Children, kids[:])
		for kb := 0; kb < 256; kb++ {
			if s := idx[kb]; s != 0 {
				c := pmem.Ptr(le64(kids[int(s-1)*8:]))
				out = append(out, edge{byte(kb), c})
			}
		}
	case typeNode256:
		var kids [256 * 8]byte
		a.ReadAt(n+n256Children, kids[:])
		for kb := 0; kb < 256; kb++ {
			if c := pmem.Ptr(le64(kids[kb*8:])); !c.IsNil() {
				out = append(out, edge{byte(kb), c})
			}
		}
	}
	return out
}

// le64 decodes a little-endian uint64.
func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// countChildren returns the number of populated edges.
func countChildren(a *pmem.Arena, n pmem.Ptr) int {
	switch nodeType(a, n) {
	case typeNode4:
		w := a.Read8(n + n4SlotWord)
		c := 0
		for i := 0; i < 4; i++ {
			if byte(w>>32)&(1<<uint(i)) != 0 {
				c++
			}
		}
		return c
	case typeNode16:
		bm := a.Read8(n+n16Bitmap) & 0xffff
		c := 0
		for ; bm != 0; bm &= bm - 1 {
			c++
		}
		return c
	case typeNode48:
		bm := a.Read8(n+n48Bitmap) & ((1 << 48) - 1)
		c := 0
		for ; bm != 0; bm &= bm - 1 {
			c++
		}
		return c
	case typeNode256:
		var kids [256 * 8]byte
		a.ReadAt(n+n256Children, kids[:])
		c := 0
		for kb := 0; kb < 256; kb++ {
			if le64(kids[kb*8:]) != 0 {
				c++
			}
		}
		return c
	}
	return 0
}

// leafMatches reports whether the leaf stores exactly key.
func leafMatches(a *pmem.Arena, leaf pmem.Ptr, key []byte) bool {
	n := int(a.Read1(leaf + leafKeyLen))
	if n != len(key) || n > maxKeyLen {
		return false
	}
	var buf [maxKeyLen]byte
	a.ReadAt(leaf+leafKey, buf[:n])
	return bytes.Equal(buf[:n], key)
}

// leafKeyBytes reads a leaf's full key.
func leafKeyBytes(a *pmem.Arena, leaf pmem.Ptr) []byte {
	n := int(a.Read1(leaf + leafKeyLen))
	if n > maxKeyLen {
		n = maxKeyLen
	}
	buf := make([]byte, n)
	a.ReadAt(leaf+leafKey, buf)
	return buf
}

// NodeAlloc is the "existing PM allocator" the baselines sit on: a
// persistent bump allocator with volatile per-size free lists, plus the
// per-operation metadata persistence a general-purpose PM allocator pays
// (the paper's Section III.A.4 premise: "existing persistent memory
// allocators exhibit poor performance when allocating numerous small
// objects", citing Makalu and the FPTree authors' allocator). Following
// PMDK-style allocators, every Alloc durably records the operation in a
// redo log and updates persistent heap metadata (two 8-byte persists);
// every Free writes one. EPallocator exists precisely to amortise this
// cost over 56-object chunks, so the baselines must pay it for the
// comparison to reproduce the paper's.
//
// Freed space is reusable within a run, but — unlike EPallocator — the
// free lists die with the process, so a crash leaks whatever was in
// flight or freed-but-unreused. This models the persistent-leak exposure
// the paper attributes to WOART and ART+CoW.
type NodeAlloc struct {
	arena *pmem.Arena
	mu    sync.Mutex
	free  map[int64][]pmem.Ptr
	// meta is the allocator's persistent metadata cell (redo-log slot +
	// heap-state word), lazily reserved.
	meta pmem.Ptr
}

// NewNodeAlloc returns an allocator over the arena.
func NewNodeAlloc(arena *pmem.Arena) *NodeAlloc {
	return &NodeAlloc{arena: arena, free: make(map[int64][]pmem.Ptr)}
}

// chargeMeta durably records allocator metadata: one redo-log entry and,
// for allocations, one heap-state update (PMDK pmemobj performs the
// equivalent flushes on every pmemobj_alloc/free).
func (na *NodeAlloc) chargeMeta(p pmem.Ptr, persists int) {
	if na.meta.IsNil() {
		m, err := na.arena.Reserve(64, 64)
		if err != nil {
			return // metadata accounting is best-effort near exhaustion
		}
		na.meta = m
	}
	for i := 0; i < persists; i++ {
		na.arena.Write8(na.meta+pmem.Ptr(8*i), uint64(p)|uint64(i)<<56)
		na.arena.Persist(na.meta+pmem.Ptr(8*i), 8)
	}
}

// Alloc returns a zeroed block of the given size.
func (na *NodeAlloc) Alloc(size int64) (pmem.Ptr, error) {
	na.mu.Lock()
	defer na.mu.Unlock()
	if lst := na.free[size]; len(lst) > 0 {
		p := lst[len(lst)-1]
		na.free[size] = lst[:len(lst)-1]
		na.arena.WriteAt(p, make([]byte, size)) // reused blocks carry stale data
		na.chargeMeta(p, 2)
		return p, nil
	}
	p, err := na.arena.Reserve(size, 8)
	if err != nil {
		return pmem.Nil, err
	}
	na.chargeMeta(p, 2)
	return p, nil
}

// Free returns a block to the (volatile) free list.
func (na *NodeAlloc) Free(p pmem.Ptr, size int64) {
	na.mu.Lock()
	defer na.mu.Unlock()
	na.free[size] = append(na.free[size], p)
	na.chargeMeta(p, 1)
}
