package art

// PrefetchWindow is how many walks Prefetch keeps in flight at once.
const PrefetchWindow = 64

// Prefetch looks keys[i] up in roots[i] for every i, PrefetchWindow keys
// at a time, and returns the sum of the values it found: the sum of what
// Get would return for the hits. A nil root holds nothing. Like Get, it
// may run beside a writer, and then the sum may be one no single state of
// the trees held.
//
// Its purpose is the walk, not the sum. A lookup is a chain of dependent
// cache misses, root to leaf, and Get runs one chain at a time. Prefetch
// advances every walk of a window by one node per round, so the loads of
// one round belong to different keys, do not depend on each other, and
// the CPU overlaps their misses (group prefetching: Chen et al., ICDE
// 2004). A caller about to look the same keys up one by one finds their
// nodes in cache. The sum is returned so that no load is dead code; a
// caller that only wants the walk discards it.
func Prefetch(roots []*Root, keys [][]byte) uint64 {
	if len(roots) != len(keys) {
		panic("art: Prefetch roots/keys length mismatch")
	}
	var sum uint64
	for len(keys) > 0 {
		n := min(len(keys), PrefetchWindow)
		sum += prefetchWindow(roots[:n], keys[:n])
		roots, keys = roots[n:], keys[n:]
	}
	return sum
}

// prefetchWindow runs Prefetch over at most PrefetchWindow keys. Each round
// takes one step of every walk still going, in lookup's order: a leaf ends
// the walk with the full-key compare, an inner node checks its stored
// prefix and hands over the child under the next key byte, or its
// terminator where the key ends.
func prefetchWindow(roots []*Root, keys [][]byte) uint64 {
	var (
		nodes [PrefetchWindow]*node
		depth [PrefetchWindow]int
		live  [PrefetchWindow]uint8 // the walks still going, by index
	)
	m := 0
	for i, r := range roots {
		if r == nil {
			continue
		}
		if nodes[i] = r.p.Load(); nodes[i] != nil {
			live[m] = uint8(i)
			m++
		}
	}
	var sum uint64
	for m > 0 {
		for j := 0; j < m; {
			i := live[j]
			n, key, d := nodes[i], keys[i], depth[i]
			var next *node
			if n.isLeaf() {
				if l := n.leaf(); string(l.k()) == string(key) {
					sum += l.val
				}
			} else if h := n.inner(); hasPrefix(key[d:], h) {
				if d += int(h.plen); d == len(key) {
					if h.term != nil {
						next = &h.term.node
					}
				} else {
					next = h.child(key[d])
					d++
				}
			}
			if next == nil {
				m--
				live[j] = live[m]
				continue
			}
			nodes[i], depth[i] = next, d
			j++
		}
	}
	return sum
}
