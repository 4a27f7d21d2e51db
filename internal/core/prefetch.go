package core

import "github.com/casl-sdsu/hart/internal/art"

// Prefetch warms the CPU caches for operations on keys that are about to
// run: it routes every key through the directory, then loads every
// shard's root and walks every key down to its DRAM leaf, each stage for
// up to art.PrefetchWindow keys before the next, so that the cache misses
// of different keys overlap (art.Prefetch). The lookups that follow then
// find the directory slot, the shard and the tree path in cache.
//
// Prefetch is not a read. It takes no lock, reads no PM word, counts
// nothing, allocates nothing and returns nothing; a key that is invalid,
// absent, or in a shard still pending lazy recovery is walked only as far
// as DRAM leads. What it loads may be stale the moment it returns, and
// nothing relies on it: correctness rests entirely on the operations that
// follow.
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
	art.Prefetch(roots[:len(keys)], artKeys[:len(keys)])
}
