package art

// PrefetchWindow is how many walks Prefetch keeps in flight at once.
const PrefetchWindow = 64

// Prefetch looks keys[i] up in roots[i] for every i, PrefetchWindow keys
// at a time, and stores in vals[i] the value Get would return: 0 for a
// miss, so a caller that stores 0 cannot tell the two apart. A nil root
// holds nothing. Like Get, it may run beside a writer, and then a value,
// hit or miss, may be one no single state of the tree held.
//
// Its purpose is the walk more than the values. A lookup is a chain of
// dependent cache misses, root to leaf, and Get runs one chain at a time.
// Prefetch advances every walk of a window by one step per round, and a
// step hints the next line it will need as soon as its address is known
// (cpu.Prefetch) and reads it only in the next round, after every other
// walk of the window has had its turn. No branch waits on a miss the
// round issued, so the misses of one round, each a different key's,
// overlap (group prefetching: Chen et al., ICDE 2004). A caller about to
// look the same keys up one by one finds their nodes in cache, and can
// hint what lies beyond the tree — the record a value names — from vals.
func Prefetch(roots []*Root, keys [][]byte, vals []uint64) {
	if len(roots) != len(keys) || len(vals) != len(keys) {
		panic("art: Prefetch roots/keys/vals length mismatch")
	}
	for len(keys) > 0 {
		n := min(len(keys), PrefetchWindow)
		prefetchWindow(roots[:n], keys[:n], vals[:n])
		roots, keys, vals = roots[n:], keys[n:], vals[n:]
	}
}

// The stages a walk of prefetchWindow can be at, each one round long.
const (
	atNode  = iota // read nodes[i], hinted
	atIndex        // read the hinted index word of NODE48 nodes[i]
	atSlot         // load slots[i], hinted
)

// prefetchWindow runs Prefetch over at most PrefetchWindow keys in
// rounds. The first hints every root word and the second loads them and
// hints the nodes they hold. After that each round takes one stage of
// every walk still going. At a node, a leaf ends the walk with the
// full-key compare; an inner node checks its stored prefix and goes on to
// its terminator where the key ends, or else under the next key byte. A
// NODE4 holds its slots in its header's line, so the child is loaded at
// once. The slot of a NODE16 or NODE256 may lie lines away from the
// header, so it is hinted and loaded the next round; a NODE48 first hints
// the index word that names the slot, and reads it the next. Splitting the
// wide nodes' steps so took BenchmarkGetBurst's walk from about 171 to 143
// ns a key (medians of 10 runs each, 2-vCPU guest).
func prefetchWindow(roots []*Root, keys [][]byte, vals []uint64) {
	var (
		nodes [PrefetchWindow]*node
		slots [PrefetchWindow]**node
		depth [PrefetchWindow]int // key bytes consumed
		stage [PrefetchWindow]uint8
		live  [PrefetchWindow]uint8 // the walks still going, by index
	)
	for i, r := range roots {
		vals[i] = 0
		if r != nil {
			r.hint()
		}
	}
	m := 0
	for i, r := range roots {
		if r == nil {
			continue
		}
		if nodes[i] = r.p.Load(); nodes[i] != nil {
			nodes[i].hint()
			live[m] = uint8(i)
			m++
		}
	}
	for m > 0 {
		for j := 0; j < m; {
			i := live[j]
			var next *node
			var slot **node
			switch key, d := keys[i], depth[i]; stage[i] {
			case atSlot:
				next = load(slots[i])
			case atIndex:
				v := nodes[i].inner().n48()
				if s := v.at(key[d-1]); s != 0 {
					slot = &v.children[s-1]
				}
			case atNode:
				if n := nodes[i]; n.isLeaf() {
					if l := n.leaf(); string(l.k()) == string(key) {
						vals[i] = l.val
					}
				} else if h := n.inner(); hasPrefix(key[d:], h) {
					if d += int(h.plen); d == len(key) {
						if h.term != nil {
							next = &h.term.node
						}
						break
					}
					depth[i] = d + 1
					switch h.kind() {
					case Kind4:
						next = h.child(key[d])
					case Kind48:
						h.n48().hintIndex(key[d])
						stage[i] = atIndex
						j++
						continue
					default:
						slot = h.slot(key[d])
					}
				}
			}
			switch {
			case slot != nil:
				hintSlot(slot)
				slots[i], stage[i] = slot, atSlot
			case next != nil:
				next.hint()
				nodes[i], stage[i] = next, atNode
			default:
				m--
				live[j] = live[m]
				continue
			}
			j++
		}
	}
}
