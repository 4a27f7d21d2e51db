package core

import (
	"bytes"
	"fmt"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// Check is HART's fsck. It validates the allocator's invariants and the
// cross-layer invariants between the volatile index and persistent memory:
//
//  1. Every committed leaf (leaf bit set) is indexed by exactly one ART
//     under exactly its stored key, and vice versa, and the shape its ART
//     entry carries is the shape byte it stores.
//  2. Every committed leaf holds its value in canonical form: shape 1-8
//     means word 0 is the value, with nothing above its length; shape 0
//     means word 0 names a committed value object of the class matching
//     its length, which is above MaxInlineLen — a value that fits the leaf
//     is never out of line.
//  3. Every committed value object is referenced by exactly one committed
//     leaf. Anything else is a persistent leak.
//  4. Every committed leaf's key fits its slot: 1 to 14 bytes in a 24-byte
//     leaf, 1 to MaxKeyLen in a 40-byte one. Checked before any key is
//     read, since a longer one would be read out of the neighbouring slot.
//
// Check takes every shard's read lock, so it excludes writers. It demands
// full allocator quiescence (epalloc.CheckQuiescent): callers run fsck
// between operations or after recovery, where an in-flight slot or a
// busy/armed update log means a write path leaked on its way out.
func (h *HART) Check() error {
	if err := h.checkSuperblock(); err != nil {
		return err
	}
	if err := h.alloc.CheckQuiescent(); err != nil {
		return err
	}
	// A lazily recovered index is consistent but not yet comparable (the
	// pending shards' trees are empty); finish the builds first.
	h.DrainRecovery()

	// PM side: committed leaves and their key lengths. A dead slot's
	// words are never read, here or anywhere.
	liveLeaf := make(map[pmem.Ptr]bool)
	for _, c := range leafClasses {
		keyCap := leafKeyCap(c)
		var slotErr error
		if err := h.alloc.IterateObjects(c, func(leaf pmem.Ptr, used bool) bool {
			if !used {
				return true
			}
			if n := hdrKeyLen(h.arena.Read8(leaf + lfKeyLen)); n == 0 || n > keyCap {
				slotErr = fmt.Errorf("hart: leaf %d has key length %d; its %d-byte slot holds keys of 1 to %d bytes",
					leaf, n, classSizes[c], keyCap)
				return false
			}
			liveLeaf[leaf] = true
			return true
		}); err != nil {
			return err
		}
		if slotErr != nil {
			return slotErr
		}
	}

	// Volatile side: every tree entry must be a committed leaf whose
	// stored key matches its position in the index.
	d := h.dir.Load()
	type namedShard struct {
		hk string
		s  *artShard
	}
	shards := make([]namedShard, 0, d.Len())
	d.Range(func(hk []byte, s *artShard) bool {
		shards = append(shards, namedShard{string(hk), s})
		return true
	})

	valueRefs := make(map[pmem.Ptr]int)
	indexed := 0
	for _, ns := range shards {
		var shardErr error
		ns.s.mu.RLock()
		ns.s.root.Walk(nil, nil, false, func(artKey []byte, w uint64) bool {
			ref := leafRef(w)
			leaf := ref.ptr()
			indexed++
			if !liveLeaf[leaf] {
				shardErr = fmt.Errorf("hart: indexed leaf %d has no committed bit", leaf)
				return false
			}
			delete(liveLeaf, leaf)
			wantKey := append([]byte(ns.hk), artKey...)
			if gotKey := h.leafKey(leaf); !bytes.Equal(gotKey, wantKey) {
				shardErr = fmt.Errorf("hart: leaf %d stores key %q but is indexed under %q", leaf, gotKey, wantKey)
				return false
			}
			// The entry holding the leaf must be its key's first kh bytes,
			// the only place a lookup searches for it.
			if hk, _ := h.splitKey(wantKey); string(hk) != ns.hk {
				shardErr = fmt.Errorf("hart: leaf %d (key %q) indexed under %q but its hash key is %q",
					leaf, wantKey, ns.hk, hk)
				return false
			}
			if shape := hdrShape(h.arena.Read8(leaf + lfKeyLen)); shape != ref.shape() {
				shardErr = fmt.Errorf("hart: leaf %d stores shape %d but is indexed with shape %d", leaf, shape, ref.shape())
				return false
			}
			word0 := h.arena.Read8(leaf + lfWord0)
			if n := ref.shape(); n != 0 {
				if n > MaxInlineLen || n < 8 && word0>>(8*uint(n)) != 0 {
					shardErr = fmt.Errorf("hart: leaf %d holds a %d-byte inline value in word %#x", leaf, n, word0)
					return false
				}
				return true
			}
			vp, n := unpackValue(word0)
			if vp.IsNil() || n <= MaxInlineLen || n > MaxValueLen {
				shardErr = fmt.Errorf("hart: leaf %d has invalid value word (ptr=%d len=%d)", leaf, vp, n)
				return false
			}
			if c, err := h.alloc.ClassOf(vp); err != nil || c != classValue16 {
				shardErr = fmt.Errorf("hart: leaf %d value %d in class %v, want %v (err %v)",
					leaf, vp, c, classValue16, err)
				return false
			}
			if set, err := h.alloc.BitIsSet(vp); err != nil || !set {
				shardErr = fmt.Errorf("hart: leaf %d references uncommitted value %d", leaf, vp)
				return false
			}
			valueRefs[vp]++
			return true
		})
		ns.s.mu.RUnlock()
		if shardErr != nil {
			return shardErr
		}
	}

	for leaf := range liveLeaf {
		return fmt.Errorf("hart: committed leaf %d (key %q) is not indexed — lost record",
			leaf, h.leafKey(leaf))
	}
	if indexed != h.Len() {
		return fmt.Errorf("hart: size counter %d but %d leaves indexed", h.Len(), indexed)
	}

	// Value-object accounting: exactly one live reference.
	var valErr error
	if err := h.alloc.IterateObjects(classValue16, func(vp pmem.Ptr, used bool) bool {
		if !used {
			return true
		}
		switch refs := valueRefs[vp]; {
		case refs == 1:
		case refs > 1:
			valErr = fmt.Errorf("hart: value %d referenced by %d leaves", vp, refs)
		default:
			valErr = fmt.Errorf("hart: value %d is committed but unreachable — persistent leak", vp)
		}
		return valErr == nil
	}); err != nil {
		return err
	}
	return valErr
}
