package core

import "github.com/casl-sdsu/hart/internal/art"

// Prefetch warms the CPU caches for operations on keys that are about to
// run. For up to art.PrefetchWindow keys at a time it routes every key
// through the directory, walks every key down its shard's tree with the
// walks interleaved and each step's next line hinted before it is read
// (art.Prefetch), and then hints the PM line of every leaf the walks
// found. The lookups and writes that follow find the directory slot, the
// shard, the tree path and the record's leaf line in cache.
//
// Prefetch is not a read. It takes no lock, loads no PM word, counts
// nothing, charges no emulated PM latency, allocates nothing and returns
// nothing: a hint of a PM line is not an access (pmem.Arena.Prefetch). A
// key that is invalid, absent, or in a shard still pending lazy recovery
// is walked only as far as DRAM leads. What it finds may be stale the
// moment it returns — a leaf found beside a writer may already be free —
// and nothing relies on it: correctness rests entirely on the operations
// that follow.
func (h *HART) Prefetch(keys [][]byte) {
	for len(keys) > 0 {
		n := min(len(keys), art.PrefetchWindow)
		h.prefetch(keys[:n])
		keys = keys[n:]
	}
}

// prefetch runs Prefetch's stages over at most art.PrefetchWindow keys.
func (h *HART) prefetch(keys [][]byte) {
	dir := h.dir.Load()
	var (
		roots   [art.PrefetchWindow]*art.Root
		artKeys [art.PrefetchWindow][]byte
		refs    [art.PrefetchWindow]uint64
	)
	for i, key := range keys {
		if len(key) == 0 || len(key) > MaxKeyLen {
			continue
		}
		var hashKey []byte
		hashKey, artKeys[i] = h.splitKey(key)
		if s, ok := dir.Get(hashKey); ok {
			roots[i] = &s.root
		}
	}
	n := len(keys)
	art.Prefetch(roots[:n], artKeys[:n], refs[:n])
	for _, w := range refs[:n] {
		if w != 0 {
			h.arena.Prefetch(leafRef(w).ptr())
		}
	}
}
