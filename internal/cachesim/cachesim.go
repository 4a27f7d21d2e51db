// Package cachesim models a CPU last-level cache over the simulated PM
// address space.
//
// The paper's read-latency emulation (Eq. 1-2) only charges the PM-DRAM
// read delta for loads that actually stall the CPU, i.e. loads that miss
// the cache hierarchy. We model the 20 MB shared L3 of the paper's Xeon
// E5-2640 v3 as a set-associative cache with 64-byte lines and LRU
// replacement; package pmem consults it on every PM load to decide whether
// the load pays the PM read penalty, and evicts lines on every persist
// (CLFLUSH invalidates the flushed lines, which the paper identifies as the
// dominant cost of the {MFENCE, CLFLUSH, MFENCE} sequence).
package cachesim

import (
	"fmt"
	"sync"
)

// LineSize is the modelled cache-line size in bytes.
const LineSize = 64

const lineShift = 6

// numStripes is the number of lock stripes guarding the sets. Must be a
// power of two.
const numStripes = 256

// Cache is a set-associative cache with LRU replacement. All methods are
// safe for concurrent use; distinct sets proceed mostly in parallel thanks
// to striped locking.
type Cache struct {
	ways    int
	numSets uint64
	// sets holds tags, numSets*ways entries, each set's ways kept in LRU
	// order (index 0 = most recently used). Tag 0 means "empty"; addresses
	// are offset by one line to keep real tags nonzero.
	sets    []uint64
	stripes [numStripes]sync.Mutex
}

// New returns a cache of sizeBytes capacity with the given associativity.
// sizeBytes must be a multiple of ways*LineSize and the resulting set count
// must be a power of two; New panics otherwise, since cache geometry is a
// build-time decision.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cachesim: invalid geometry size=%d ways=%d", sizeBytes, ways))
	}
	lines := sizeBytes / LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cachesim: size %d not divisible into %d ways", sizeBytes, ways))
	}
	numSets := lines / ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cachesim: set count %d is not a power of two", numSets))
	}
	return &Cache{
		ways:    ways,
		numSets: uint64(numSets),
		sets:    make([]uint64, numSets*ways),
	}
}

// Default returns the paper platform's L3 model: 20 MB, 8-way, 64 B lines.
// 20 MB / 64 B / 8 ways = 40960 sets, which is not a power of two, so we
// round capacity to 16 MB (32768 sets) — the closest power-of-two geometry;
// the 20% capacity difference does not change any of the paper's trends.
func Default() *Cache {
	return New(16<<20, 8)
}

// setIndex maps a line number to its set.
func (c *Cache) setIndex(line uint64) uint64 {
	return line & (c.numSets - 1)
}

// Access touches the byte range [addr, addr+size) and returns the number of
// line misses it caused. Lines touched become most-recently-used.
func (c *Cache) Access(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := addr >> lineShift
	last := (addr + uint64(size) - 1) >> lineShift
	misses := 0
	for line := first; line <= last; line++ {
		if c.touch(line) {
			misses++
		}
	}
	return misses
}

// touch brings one line into the cache, returning true on a miss.
func (c *Cache) touch(line uint64) bool {
	tag := line + 1 // keep 0 as the empty marker
	set := c.setIndex(line)
	base := int(set) * c.ways
	stripe := &c.stripes[set&(numStripes-1)]
	stripe.Lock()
	defer stripe.Unlock()

	ways := c.sets[base : base+c.ways]
	for i, t := range ways {
		if t == tag {
			// Hit: move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return false
		}
	}
	// Miss: evict LRU (last slot), insert at MRU.
	copy(ways[1:], ways[:c.ways-1])
	ways[0] = tag
	return true
}

// Flush evicts every line overlapping [addr, addr+size), modelling CLFLUSH.
func (c *Cache) Flush(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first := addr >> lineShift
	last := (addr + uint64(size) - 1) >> lineShift
	for line := first; line <= last; line++ {
		tag := line + 1
		set := c.setIndex(line)
		base := int(set) * c.ways
		stripe := &c.stripes[set&(numStripes-1)]
		stripe.Lock()
		ways := c.sets[base : base+c.ways]
		for i, t := range ways {
			if t == tag {
				// Remove and compact, keeping LRU order of the rest.
				copy(ways[i:], ways[i+1:])
				ways[c.ways-1] = 0
				break
			}
		}
		stripe.Unlock()
	}
}

// Contains reports whether the line holding addr is currently cached.
// Intended for tests; it does not update recency.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> lineShift
	tag := line + 1
	set := c.setIndex(line)
	base := int(set) * c.ways
	stripe := &c.stripes[set&(numStripes-1)]
	stripe.Lock()
	defer stripe.Unlock()
	for _, t := range c.sets[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}
