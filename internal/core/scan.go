package core

import (
	"bytes"
	"time"
)

// Scan visits all records with start <= key < end in ascending key order,
// calling fn with copies of key and value until fn returns false. A nil
// start scans from the smallest key; a nil end scans to the largest.
//
// The paper implements range query as one search per known key (Section
// IV.D) and notes that "the side-effect of hash on range query of HART is
// very limited because the main part of HART are multiple ART trees".
// Scan realises that observation as a native ordered scan: directory
// entries sort like the records they hold, and each ART is traversed in
// order, making the concatenated output globally sorted. An entry that is
// a proper prefix of another is a key shorter than kh, and it holds only
// that key, so entry order is record order.
//
// The walk is cursor-based rather than a single directory iteration: each
// step finds the cursor's entry in the directory as it is now (Seek),
// visits that entry under its read lock, and advances the cursor past the
// entry's whole key range. A shard that empties, leaves the directory and
// is created afresh between steps therefore cannot hide records inserted
// into its successor: the next Seek finds them ahead of the cursor.
func (h *HART) Scan(start, end []byte, fn func(key, value []byte) bool) {
	if h.obs.timing.Enabled() {
		t := time.Now()
		h.scanOp(start, end, fn)
		h.obs.scanH.Record(time.Since(t).Nanoseconds())
		return
	}
	h.scanOp(start, end, fn)
}

// scanOp is Scan's body behind the gated timing wrapper above.
func (h *HART) scanOp(start, end []byte, fn func(key, value []byte) bool) {
	if h.closed.Load() {
		return
	}
	h.obs.scans.Add(1)
	var visited uint64
	defer func() { h.obs.scanRecords.Add(visited) }()
	// Normalise the bounds once: an empty start is the same as nil
	// (nothing sorts below ""), and an empty end means an empty range.
	// The in-shard bounds derived below then never produce an empty
	// non-nil slice, which the tree iterators would treat as unbounded.
	if len(start) == 0 {
		start = nil
	}
	if end != nil && len(end) == 0 {
		return
	}
	cursor := start // next key position to visit; nil = from the beginning
	for {
		d := h.dir.Load()
		var ek, artStart []byte
		var s *artShard
		hk, rest := h.splitKey(cursor)
		if hs, ok := d.Get(hk); ok && len(rest) > 0 {
			// The cursor falls strictly inside the entry of its hash key:
			// its remaining records start at cursor's ART key. No entry
			// sorts between hk and cursor: it would extend hk, and no entry
			// is longer than kh.
			ek, artStart, s = hk, rest, hs
		} else if ek, s, ok = d.Seek(cursor); !ok {
			return
		} // else ek >= cursor, so every key in it qualifies
		if end != nil && bytes.Compare(ek, end) >= 0 {
			return // entries ahead only grow; nothing further qualifies
		}
		var artEnd []byte
		if end != nil && bytes.HasPrefix(end, ek) && len(end) > len(ek) {
			artEnd = end[len(ek):]
		}

		if s.pending.Load() != nil {
			h.drainShard(s)
		}
		s.mu.RLock()
		if s.dead {
			// Emptied since the lookup: re-resolve the unchanged cursor.
			s.mu.RUnlock()
			continue
		}
		stop := false
		s.tree.Load().AscendRange(artStart, artEnd, func(artKey []byte, w uint64) bool {
			key, value, ok := h.leafKeyValue(leafRef(w))
			if !ok {
				return true
			}
			visited++
			if !fn(key, value) {
				stop = true
				return false
			}
			return true
		})
		s.mu.RUnlock()
		if stop {
			return
		}
		// Advance past everything this entry held. An entry shorter than
		// kh is a key shorter than kh and holds just that key, so the
		// entries extending it own the rest of its prefix range and the
		// cursor must step into that range, not over it. Either advance is
		// strictly greater than the old cursor, so the walk terminates.
		if len(ek) < h.opts.HashKeyLen {
			cursor = append(append([]byte(nil), ek...), 0)
		} else if cursor = prefixSuccessor(ek); cursor == nil {
			return // the entry's range extends to the top of the keyspace
		}
	}
}

// prefixSuccessor returns the smallest byte string greater than every
// string having p as a prefix, or nil when no such string exists (p is
// all 0xff).
func prefixSuccessor(p []byte) []byte {
	out := append([]byte(nil), p...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xff {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// leafKeyValue loads copies of a leaf's key and value; ok is false for a
// leaf whose bit is unset (concurrently deleted).
func (h *HART) leafKeyValue(ref leafRef) (key, value []byte, ok bool) {
	if set, err := h.alloc.BitIsSet(ref.ptr()); err != nil || !set {
		return nil, nil, false
	}
	if value, ok = h.readValue(ref, nil, true, nil); !ok {
		return nil, nil, false
	}
	return h.leafKey(ref.ptr()), value, true
}

// Keys returns all keys in ascending order (convenience for tests and
// examples; materialises the whole key set).
func (h *HART) Keys() [][]byte {
	var out [][]byte
	h.Scan(nil, nil, func(k, _ []byte) bool {
		out = append(out, k)
		return true
	})
	return out
}

// ScanReverse visits records with start <= key < end in descending key
// order — the mirror of Scan, with the cursor tracking the exclusive
// upper bound of the keys still to visit. (API extension beyond the
// paper.)
func (h *HART) ScanReverse(start, end []byte, fn func(key, value []byte) bool) {
	if h.obs.timing.Enabled() {
		t := time.Now()
		h.scanReverseOp(start, end, fn)
		h.obs.scanH.Record(time.Since(t).Nanoseconds())
		return
	}
	h.scanReverseOp(start, end, fn)
}

// scanReverseOp is ScanReverse's body behind the gated timing wrapper.
func (h *HART) scanReverseOp(start, end []byte, fn func(key, value []byte) bool) {
	if h.closed.Load() {
		return
	}
	h.obs.scans.Add(1)
	var visited uint64
	defer func() { h.obs.scanRecords.Add(visited) }()
	// Same bound normalisation as Scan.
	if len(start) == 0 {
		start = nil
	}
	if end != nil && len(end) == 0 {
		return
	}
	cursorEnd := end // visit keys < cursorEnd next; nil = from the top
	for {
		// Highest entry that can hold a key < cursorEnd: entries at or
		// above cursorEnd hold only keys >= themselves >= cursorEnd.
		ek, s, ok := h.dir.Load().SeekBelow(cursorEnd)
		if !ok {
			return
		}
		var artStart []byte
		if start != nil {
			switch {
			case bytes.Compare(ek, start) >= 0:
				artStart = nil // every key in the entry is >= start
			case bytes.HasPrefix(start, ek):
				// ek < start here, so the suffix is never empty.
				artStart = start[len(ek):]
			default:
				return // this entry and everything below it is < start
			}
		}
		var artEnd []byte
		if cursorEnd != nil && bytes.HasPrefix(cursorEnd, ek) && len(cursorEnd) > len(ek) {
			// The entry's range straddles the cursor (ek is a proper
			// prefix): bound the in-shard descent.
			artEnd = cursorEnd[len(ek):]
		}

		if s.pending.Load() != nil {
			h.drainShard(s)
		}
		s.mu.RLock()
		if s.dead {
			s.mu.RUnlock()
			continue
		}
		stop := false
		s.tree.Load().DescendRange(artStart, artEnd, func(artKey []byte, w uint64) bool {
			key, value, ok := h.leafKeyValue(leafRef(w))
			if !ok {
				return true
			}
			visited++
			if !fn(key, value) {
				stop = true
				return false
			}
			return true
		})
		s.mu.RUnlock()
		if stop {
			return
		}
		if start != nil && bytes.Compare(ek, start) <= 0 {
			return // keys below ek are all < start
		}
		cursorEnd = ek // everything >= ek is done
	}
}
