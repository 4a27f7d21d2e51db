package core

import "github.com/casl-sdsu/hart/internal/art"

// Prefetch warms the CPU caches for operations on keys that are about to
// run: it routes every key through the directory, loads every shard's
// published tree, and walks every key down to its DRAM leaf, each stage
// for up to art.PrefetchWindow keys before the next, so that the cache
// misses of different keys overlap (art.Prefetch). The lookups that follow
// then find the directory slot, the shard and the tree path in cache.
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

// prefetch runs Prefetch's three stages over at most art.PrefetchWindow
// keys.
func (h *HART) prefetch(keys [][]byte) {
	dir := h.dir.Load()
	var (
		shards  [art.PrefetchWindow]*artShard
		trees   [art.PrefetchWindow]*art.Tree
		artKeys [art.PrefetchWindow][]byte
	)
	for i, key := range keys {
		if len(key) == 0 || len(key) > MaxKeyLen {
			continue
		}
		var hashKey []byte
		hashKey, artKeys[i] = h.splitKey(key)
		shards[i], _ = dir.Get(hashKey)
	}
	for i, s := range shards[:len(keys)] {
		if s != nil {
			trees[i] = s.tree.Load()
		}
	}
	art.Prefetch(trees[:len(keys)], artKeys[:len(keys)])
}
