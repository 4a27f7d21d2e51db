package pmart

import (
	"fmt"
	"math/bits"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// This file holds the two mutation styles of the trees over the shared
// layouts:
//
//   - In-place, failure-ordered mutations (WOART, Section II.C of the HART
//     paper / Lee et al. FAST'17): each node kind commits an insertion
//     with a final 8-byte-atomic (or 1-byte-atomic) "publish" store, so a
//     crash either exposes the new child or leaves the node unchanged.
//
//   - Whole-node construction (ART+CoW): new nodes are fully written and
//     persisted before a single atomic pointer swap publishes them.

// addChildInPlace inserts (b -> child) into n using the kind's
// failure-atomic publish protocol. It returns false when the node is full
// and must be grown. child must already be persistent.
func addChildInPlace(a *pmem.Arena, n pmem.Ptr, b byte, child pmem.Ptr) bool {
	switch nodeType(a, n) {
	case typeNode4:
		w := a.Read8(n + n4SlotWord)
		valid := byte(w >> 32)
		slot := -1
		for i := 0; i < 4; i++ {
			if valid&(1<<uint(i)) == 0 {
				slot = i
				break
			}
		}
		if slot < 0 {
			return false
		}
		// Child pointer first, then one atomic slot-word store publishes
		// both the key byte and the valid bit (the WOART NODE4 protocol).
		addr := n + n4Children + pmem.Ptr(slot*8)
		a.WritePtr(addr, child)
		a.Persist(addr, 8)
		w &^= uint64(0xff) << (8 * uint(slot))
		w |= uint64(b) << (8 * uint(slot))
		w |= uint64(1) << (32 + uint(slot))
		a.Write8(n+n4SlotWord, w)
		a.Persist(n+n4SlotWord, 8)
		return true

	case typeNode16:
		bm := a.Read8(n + n16Bitmap)
		slot := -1
		for i := 0; i < 16; i++ {
			if bm&(1<<uint(i)) == 0 {
				slot = i
				break
			}
		}
		if slot < 0 {
			return false
		}
		// Key byte and child pointer first, bitmap bit last (atomic
		// publish, the WOART NODE16 protocol).
		a.Write1(n+n16Keys+pmem.Ptr(slot), b)
		addr := n + n16Children + pmem.Ptr(slot*8)
		a.WritePtr(addr, child)
		a.Persist(n+n16Keys+pmem.Ptr(slot), 1)
		a.Persist(addr, 8)
		a.Write8(n+n16Bitmap, bm|1<<uint(slot))
		a.Persist(n+n16Bitmap, 8)
		return true

	case typeNode48:
		bm := a.Read8(n + n48Bitmap)
		slot := bits.TrailingZeros64(^bm & ((1 << 48) - 1))
		if slot >= 48 {
			return false
		}
		// Claim the slot (pointer + bitmap), then publish via the 1-byte
		// index store, which is atomic (the WOART NODE48 protocol).
		addr := n + n48Children + pmem.Ptr(slot*8)
		a.WritePtr(addr, child)
		a.Persist(addr, 8)
		a.Write8(n+n48Bitmap, bm|1<<uint(slot))
		a.Persist(n+n48Bitmap, 8)
		a.Write1(n+n48Index+pmem.Ptr(b), byte(slot+1))
		a.Persist(n+n48Index+pmem.Ptr(b), 1)
		return true

	case typeNode256:
		// A single atomic pointer store publishes the child.
		addr := n + n256Children + pmem.Ptr(int(b)*8)
		a.WritePtr(addr, child)
		a.Persist(addr, 8)
		return true
	}
	panic("pmart: addChildInPlace on unknown node type")
}

// removeChildInPlace removes edge b from n with the kind's atomic
// unpublish store. It reports whether the edge existed.
func removeChildInPlace(a *pmem.Arena, n pmem.Ptr, b byte) bool {
	switch nodeType(a, n) {
	case typeNode4:
		w := a.Read8(n + n4SlotWord)
		valid := byte(w >> 32)
		for i := 0; i < 4; i++ {
			if valid&(1<<uint(i)) != 0 && byte(w>>(8*uint(i))) == b {
				w &^= uint64(1) << (32 + uint(i))
				a.Write8(n+n4SlotWord, w)
				a.Persist(n+n4SlotWord, 8)
				return true
			}
		}
	case typeNode16:
		bm := a.Read8(n + n16Bitmap)
		var keys [16]byte
		a.ReadAt(n+n16Keys, keys[:])
		for i := 0; i < 16; i++ {
			if bm&(1<<uint(i)) != 0 && keys[i] == b {
				a.Write8(n+n16Bitmap, bm&^(1<<uint(i)))
				a.Persist(n+n16Bitmap, 8)
				return true
			}
		}
	case typeNode48:
		if s := a.Read1(n + n48Index + pmem.Ptr(b)); s != 0 {
			// Unpublish via the index byte, then release the slot.
			a.Write1(n+n48Index+pmem.Ptr(b), 0)
			a.Persist(n+n48Index+pmem.Ptr(b), 1)
			bm := a.Read8(n + n48Bitmap)
			a.Write8(n+n48Bitmap, bm&^(1<<uint(s-1)))
			a.Persist(n+n48Bitmap, 8)
			return true
		}
	case typeNode256:
		addr := n + n256Children + pmem.Ptr(int(b)*8)
		if !a.ReadPtr(addr).IsNil() {
			a.WritePtr(addr, pmem.Nil)
			a.Persist(addr, 8)
			return true
		}
	}
	return false
}

// replaceChildAt atomically swaps the child pointer stored at slotAddr.
func replaceChildAt(a *pmem.Arena, slotAddr, child pmem.Ptr) {
	a.WritePtr(slotAddr, child)
	a.Persist(slotAddr, 8)
}

// grownType returns the next larger node kind.
func grownType(typ byte) byte {
	switch typ {
	case typeNode4:
		return typeNode16
	case typeNode16:
		return typeNode48
	case typeNode48:
		return typeNode256
	}
	panic(fmt.Sprintf("pmart: cannot grow node type %d", typ))
}

// shrunkType returns the next smaller kind and the occupancy at which a
// node should shrink into it (mirroring package art's thresholds).
func shrunkType(typ byte) (byte, int) {
	switch typ {
	case typeNode16:
		return typeNode4, 3
	case typeNode48:
		return typeNode16, 12
	case typeNode256:
		return typeNode48, 37
	}
	return 0, -1
}

// buildNode constructs a fully formed node of the given kind with the
// given prefix and edges, persists it, and returns it. Both WOART (for
// grow/shrink/split) and ART+CoW (for every mutation) publish such nodes
// with a single subsequent pointer swap.
func buildNode(a *pmem.Arena, na *NodeAlloc, typ byte, prefix []byte, edges []edge) (pmem.Ptr, error) {
	if want := minTypeFor(len(edges)); typ < want {
		typ = want
	}
	size := sizeOf(typ)
	n, err := na.Alloc(size)
	if err != nil {
		return pmem.Nil, err
	}
	writeHeader(a, n, typ, prefix)
	switch typ {
	case typeNode4:
		var w uint64
		for i, e := range edges {
			a.WritePtr(n+n4Children+pmem.Ptr(i*8), e.Child)
			w |= uint64(e.Byte) << (8 * uint(i))
			w |= uint64(1) << (32 + uint(i))
		}
		a.Write8(n+n4SlotWord, w)
	case typeNode16:
		var bm uint64
		for i, e := range edges {
			a.Write1(n+n16Keys+pmem.Ptr(i), e.Byte)
			a.WritePtr(n+n16Children+pmem.Ptr(i*8), e.Child)
			bm |= 1 << uint(i)
		}
		a.Write8(n+n16Bitmap, bm)
	case typeNode48:
		var bm uint64
		for i, e := range edges {
			a.WritePtr(n+n48Children+pmem.Ptr(i*8), e.Child)
			a.Write1(n+n48Index+pmem.Ptr(e.Byte), byte(i+1))
			bm |= 1 << uint(i)
		}
		a.Write8(n+n48Bitmap, bm)
	case typeNode256:
		for _, e := range edges {
			a.WritePtr(n+n256Children+pmem.Ptr(int(e.Byte)*8), e.Child)
		}
	}
	a.Persist(n, int(size))
	return n, nil
}

// minTypeFor returns the smallest node kind holding n edges.
func minTypeFor(n int) byte {
	switch {
	case n <= 4:
		return typeNode4
	case n <= 16:
		return typeNode16
	case n <= 48:
		return typeNode48
	default:
		return typeNode256
	}
}

// buildLeaf allocates and persists a leaf holding key and the given packed
// value word.
func buildLeaf(a *pmem.Arena, na *NodeAlloc, key []byte, valueWord uint64) (pmem.Ptr, error) {
	if len(key) > maxKeyLen {
		return pmem.Nil, fmt.Errorf("pmart: key length %d exceeds %d", len(key), maxKeyLen)
	}
	leaf, err := na.Alloc(leafSize)
	if err != nil {
		return pmem.Nil, err
	}
	a.Write8(leaf+leafValueWord, valueWord)
	a.Write1(leaf+leafKeyLen, byte(len(key)))
	a.WriteAt(leaf+leafKey, key)
	a.Persist(leaf, leafSize)
	return leaf, nil
}
