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
func (h *HART) Scan(start, end []byte, fn func(key, value []byte) bool) {
	h.scan(start, end, false, fn)
}

// ScanReverse visits records with start <= key < end in descending key
// order. (API extension beyond the paper.)
func (h *HART) ScanReverse(start, end []byte, fn func(key, value []byte) bool) {
	h.scan(start, end, true, fn)
}

// scan is Scan, or ScanReverse when desc. It keeps the window [lo, hi) of
// keys still to visit and shrinks it from one side, one directory entry
// per step: each step finds the next entry in the directory as it is now
// (Seek), walks that entry's ART under its read lock, and moves the window
// past the entry's whole key range. A shard that empties, leaves the
// directory and is created afresh between steps therefore cannot hide
// records inserted into its successor: the next Seek finds them inside the
// window.
func (h *HART) scan(lo, hi []byte, desc bool, fn func(key, value []byte) bool) {
	if h.obs.timing.Enabled() {
		t := time.Now()
		defer func() { h.obs.scanH.Record(time.Since(t).Nanoseconds()) }()
	}
	if h.closed.Load() {
		return
	}
	h.obs.scans.Add(1)
	var visited uint64
	defer func() { h.obs.scanRecords.Add(visited) }()
	// An empty lo needs no special case: like nil, it is below every
	// key. Nor does an empty hi: every entry is at or above it.
	for {
		// Ascending, seek on lo's hash key: the entry met is lo's own or
		// lies wholly at or above lo, as no entry extends a hash key.
		// Descending, the entry met is the last one below hi.
		bound := hi
		if !desc {
			bound, _ = h.splitKey(lo)
		}
		ek, s, ok := h.dir.Load().Seek(bound, desc)
		// Entry ek's keys extend ek: none is in the window when ek >= hi,
		// or when ek < lo and ek is not a prefix of lo.
		if !ok || (hi != nil && bytes.Compare(ek, hi) >= 0) ||
			(lo != nil && bytes.Compare(ek, lo) < 0 && !bytes.HasPrefix(lo, ek)) {
			return
		}

		if s.pending.Load() != nil {
			h.drainShard(s)
		}
		s.mu.RLock()
		if s.dead {
			// Emptied since the lookup: re-resolve the unchanged window.
			s.mu.RUnlock()
			continue
		}
		finished := s.root.Walk(shardBound(ek, lo), shardBound(ek, hi), desc, func(_ []byte, w uint64) bool {
			key, value, ok := h.leafKeyValue(leafRef(w))
			if !ok {
				return true
			}
			visited++
			return fn(key, value)
		})
		s.mu.RUnlock()
		if !finished {
			return
		}
		// Move the window past everything this entry held. An entry
		// shorter than kh is a key shorter than kh and holds just that
		// key, so the entries extending it own the rest of its prefix
		// range and lo must step into that range, not over it. Every move
		// shrinks the window, so the walk terminates.
		switch {
		case desc:
			hi = ek
		case len(ek) < h.opts.HashKeyLen:
			lo = append(ek, 0)
		default:
			if lo = prefixSuccessor(ek); lo == nil {
				return // the entry's range extends to the top of the keyspace
			}
		}
	}
}

// shardBound is the in-shard form of a window bound for entry ek: the
// bound minus ek where ek is a proper prefix of it, else nil, as the
// entry's keys then lie wholly on the bound's inner side.
func shardBound(ek, bound []byte) []byte {
	if len(bound) > len(ek) && bytes.HasPrefix(bound, ek) {
		return bound[len(ek):]
	}
	return nil
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
