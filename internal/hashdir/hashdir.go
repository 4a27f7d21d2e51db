// Package hashdir implements the DRAM hash table at the top of HART
// (paper Fig. 1): it maps hash keys — the first kh bytes of each record
// key — to their ARTs.
//
// The paper's analysis (Section III.A.1) relies on two properties this
// implementation provides directly rather than borrowing from Go's map:
//
//   - Bounded collision cost. Keys are at most kh bytes, so the key space
//     is small and fixed; every segment grows by doubling at a 75% load
//     factor, keeping probe sequences short ("the hash collision rate is
//     always in a low range and the time complexity ... is close to
//     O(1)").
//   - Cheap ordered iteration. HART's ordered scans visit ARTs in hash-key
//     order; the table builds its sorted key list on first demand and from
//     then on updates it with each inserted or removed key, which the
//     paper observes is rare ("the hash table only needs to insert a new
//     key periodically").
//
// A table is a fixed array of segments, after Dash's segmented directory:
// each segment is its own power-of-two open-addressing array with linear
// probing and tombstones, and grows on its own. A key's 64-bit FNV-1a hash
// picks its segment with the low segBits bits and its slot with the bits
// above them.
//
// HART publishes tables as immutable snapshots: a writer clones the
// current table, mutates the clone and swaps it in. Clone copies only the
// segment headers; a segment's slots are copied on the first write to it
// (see Clone), so adding a shard costs one segment, not the table. A table
// nobody mutates may be used by any number of goroutines at once (Get,
// Range, SortedKeys, Len, Stats, DRAMBytes and Clone); Put and Delete need
// exclusive access, which HART provides by mutating only unpublished
// clones, under its directory mutex.
package hashdir

import (
	"slices"
	"sync/atomic"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/obs"
)

// MaxKeyLen bounds hash-key length; HART's kh is at most the full key
// length bound (24).
const MaxKeyLen = 24

const (
	// segBits selects the segment count. 64 keeps a segment of the
	// benchmark's 3 844-entry directory at 128 slots and of a 40 000-entry
	// one at 1 024, so creating an entry copies a 5–40 KB segment and the
	// 2 KB of headers, not the table.
	segBits     = 6
	numSegments = 1 << segBits
	segMask     = numSegments - 1
	// minSegBuckets is a segment's capacity at its first insert.
	minSegBuckets = 8
	// maxLoadNum/maxLoadDen is the grow threshold (3/4).
	maxLoadNum = 3
	maxLoadDen = 4
)

// slot states, encoded in the keyLen field.
const (
	slotEmpty     = 0xff
	slotTombstone = 0xfe
)

// slot is one open-addressing cell. Keys are stored inline to avoid
// per-entry allocations.
type slot[V any] struct {
	keyLen byte
	key    [MaxKeyLen]byte
	value  V
}

// used reports whether the slot holds an entry.
func (s *slot[V]) used() bool { return s.keyLen != slotEmpty && s.keyLen != slotTombstone }

// segment is one open-addressing array; an empty segment has no slots.
// Its 32-byte header keeps the inline header array a power-of-two stride.
type segment[V any] struct {
	slots      []slot[V]
	live, dead int32 // dead counts tombstones
}

// Table maps short byte-string keys to values of type V.
type Table[V any] struct {
	// segs holds the segment headers inline, so a lookup indexes the
	// table with no pointer to chase beyond the slot array.
	segs [numSegments]segment[V]
	live int
	// owned has bit i set when this table alone holds segment i's slot
	// array and may write it in place; a table writing a segment it does
	// not own copies it first (the art.Batch ownership idiom). Clone
	// clears it on both sides, so atomic: a published table is cloned by
	// writers while readers use it.
	owned atomic.Uint64
	// sorted caches SortedKeys: nil until the lineage first asks for it,
	// then kept in step with the key set by Put and Delete.
	sorted atomic.Pointer[[]string]
	// lin is shared by pointer between a table and every clone descended
	// from it. Nil on tables built outside New/NewFromSorted.
	lin *lineage
}

// lineage is the state a table shares with all its descendants.
type lineage struct {
	// clones counts Clone calls (HART's directory republication rate), so
	// the embedding store reads one number however many snapshots were
	// published.
	clones obs.Counter
	// ordered is set by the first SortedKeys call on any table of the
	// lineage. From then on Put and Delete keep a sorted list on every
	// table they change, so a scan running beside shard creation finds
	// each new snapshot's list ready instead of sorting at every step.
	ordered atomic.Bool
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{lin: &lineage{}}
}

// NewFromSorted builds a table from keys in strictly ascending order with
// values[i] stored under keys[i]. It exists for bulk construction —
// HART's recovery creates every shard of the rebuilt directory in one
// shot — and sizes every segment below its grow threshold up front. The
// order is checked, which catches a duplicate key, but not otherwise
// used: the keys slice is not retained, and like any table's the sorted
// list is built when SortedKeys is first called, so a directory that
// serves only point operations never holds one.
func NewFromSorted[V any](keys []string, values []V) *Table[V] {
	if len(keys) != len(values) {
		panic("hashdir: NewFromSorted keys/values length mismatch")
	}
	var counts [numSegments]int
	for i, k := range keys {
		if len(k) > MaxKeyLen {
			panic("hashdir: key exceeds MaxKeyLen")
		}
		if i > 0 && keys[i-1] >= k {
			panic("hashdir: NewFromSorted keys not strictly ascending")
		}
		counts[hash([]byte(k))&segMask]++
	}
	t := New[V]()
	for i, n := range counts {
		if n > 0 {
			b := minSegBuckets
			for (n+1)*maxLoadDen >= b*maxLoadNum {
				b *= 2
			}
			t.segs[i].reset(b)
		}
	}
	for i, k := range keys {
		h := hash([]byte(k))
		t.segs[h&segMask].reinsert(h, []byte(k), values[i])
	}
	t.owned.Store(^uint64(0)) // every slot array above is the table's own
	t.live = len(keys)
	return t
}

// hash is 64-bit FNV-1a. Its low segBits bits pick the segment: they
// depend on the low bits of every key byte, which spreads HART's hash-key
// alphabets evenly (TestSegmentSpread), where the high bits barely depend
// on a short key's last byte. The bits above them pick the slot.
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.live }

// keyEqual compares a slot's key with key.
func (s *slot[V]) keyEqual(key []byte) bool {
	if int(s.keyLen) != len(key) {
		return false
	}
	for i := range key {
		if s.key[i] != key[i] {
			return false
		}
	}
	return true
}

// find returns the index of key's slot in slots, or -1. A tombstone
// never matches, since its keyLen exceeds MaxKeyLen, so the probe simply
// passes it.
func find[V any](slots []slot[V], h uint64, key []byte) int {
	if len(slots) == 0 {
		return -1
	}
	mask := uint64(len(slots) - 1)
	for i := (h >> segBits) & mask; slots[i].keyLen != slotEmpty; i = (i + 1) & mask {
		if slots[i].keyEqual(key) {
			return int(i)
		}
	}
	return -1
}

// Get returns the value stored under key. Its probe is find's, written
// out: the compiler does not inline find, and a call costs a hot Get a
// third of its time.
func (t *Table[V]) Get(key []byte) (V, bool) {
	var zero V
	if len(key) > MaxKeyLen {
		return zero, false
	}
	h := hash(key)
	slots := t.segs[h&segMask].slots
	if len(slots) == 0 {
		return zero, false
	}
	mask := uint64(len(slots) - 1)
	for i := (h >> segBits) & mask; slots[i].keyLen != slotEmpty; i = (i + 1) & mask {
		if slots[i].keyEqual(key) {
			return slots[i].value, true
		}
	}
	return zero, false
}

// writable returns segment i ready for writing in place: owned by t, with
// room for one more entry when insert is set. A segment t does not own is
// copied first, and one without room is rehashed into a bigger array,
// which is the copy.
func (t *Table[V]) writable(i uint64, insert bool) *segment[V] {
	sg := &t.segs[i]
	switch {
	case insert && (int(sg.live+sg.dead)+1)*maxLoadDen >= len(sg.slots)*maxLoadNum:
		sg.grow()
	case t.owned.Load()&(1<<i) == 0:
		sg.slots = slices.Clone(sg.slots)
	default:
		return sg
	}
	t.owned.Or(1 << i)
	return sg
}

// Put inserts or replaces the value under key, reporting whether the key
// was newly inserted.
func (t *Table[V]) Put(key []byte, v V) bool {
	if len(key) > MaxKeyLen {
		panic("hashdir: key exceeds MaxKeyLen")
	}
	h := hash(key)
	sg := t.writable(h&segMask, true)
	mask := uint64(len(sg.slots) - 1)
	firstTomb := -1
	for i := (h >> segBits) & mask; ; i = (i + 1) & mask {
		s := &sg.slots[i]
		switch s.keyLen {
		case slotEmpty:
			if firstTomb >= 0 {
				s = &sg.slots[firstTomb]
				sg.dead--
			}
			s.keyLen = byte(len(key))
			copy(s.key[:], key)
			s.value = v
			sg.live++
			t.live++
			t.resort(key, true)
			return true
		case slotTombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		default:
			if s.keyEqual(key) {
				s.value = v
				return false
			}
		}
	}
}

// Delete removes key, reporting whether it was present.
func (t *Table[V]) Delete(key []byte) bool {
	if len(key) > MaxKeyLen {
		return false
	}
	h := hash(key)
	i := find(t.segs[h&segMask].slots, h, key)
	if i < 0 {
		return false
	}
	// A copy keeps every slot at its index, so i holds in it too.
	sg := t.writable(h&segMask, false)
	var zero V
	sg.slots[i].keyLen = slotTombstone
	sg.slots[i].value = zero
	sg.live--
	sg.dead++
	t.live--
	t.resort(key, false)
	return true
}

// resort keeps the sorted list in step after key was inserted or
// removed. The list may be shared with the table's clones, so the new one
// is a copy with one entry added or dropped: O(n) string headers, no sort.
// A table of an ordered lineage that has no list yet (cloned before the
// first SortedKeys call landed) builds one.
func (t *Table[V]) resort(key []byte, inserted bool) {
	p := t.sorted.Load()
	if p == nil {
		if t.lin != nil && t.lin.ordered.Load() {
			t.SortedKeys()
		}
		return
	}
	k := string(key)
	ks := *p
	i, _ := slices.BinarySearch(ks, k)
	if inserted {
		ks = slices.Concat(ks[:i], []string{k}, ks[i:])
	} else {
		ks = slices.Concat(ks[:i], ks[i+1:])
	}
	t.sorted.Store(&ks)
}

// grow rehashes the segment into a fresh array: double the capacity, or
// the same when it is mostly tombstones, or minSegBuckets for a segment
// that has none.
func (sg *segment[V]) grow() {
	old := sg.slots
	n := len(old)
	switch {
	case n == 0:
		n = minSegBuckets
	case (int(sg.live)+1)*maxLoadDen < n*maxLoadNum/2:
		// Mostly tombstones: rehash at the same capacity.
	default:
		n *= 2
	}
	sg.reset(n)
	for i := range old {
		if s := &old[i]; s.used() {
			key := s.key[:s.keyLen]
			sg.reinsert(hash(key), key, s.value)
		}
	}
}

// reset gives the segment n empty slots (a power of two).
func (sg *segment[V]) reset(n int) {
	sg.slots = make([]slot[V], n)
	for i := range sg.slots {
		sg.slots[i].keyLen = slotEmpty
	}
	sg.live, sg.dead = 0, 0
}

// reinsert adds an entry during a rebuild (key known absent, segment known
// to have room and to be owned).
func (sg *segment[V]) reinsert(h uint64, key []byte, v V) {
	mask := uint64(len(sg.slots) - 1)
	i := (h >> segBits) & mask
	for sg.slots[i].keyLen != slotEmpty {
		i = (i + 1) & mask
	}
	s := &sg.slots[i]
	s.keyLen = byte(len(key))
	copy(s.key[:], key)
	s.value = v
	sg.live++
}

// SortedKeys returns the keys in ascending order. The list is built on
// the first call and cached, and the call marks the lineage ordered: from
// then on Put and Delete derive each changed table's list from its
// predecessor's by one insertion or removal, so later snapshots never
// sort. A lineage that never asks for the list never builds one. The
// returned slice is shared; callers must not modify it.
func (t *Table[V]) SortedKeys() []string {
	if p := t.sorted.Load(); p != nil {
		return *p
	}
	if t.lin != nil {
		t.lin.ordered.Store(true)
	}
	keys := make([]string, 0, t.live)
	t.Range(func(k []byte, _ V) bool {
		keys = append(keys, string(k))
		return true
	})
	slices.Sort(keys)
	t.sorted.Store(&keys)
	return keys
}

// Range calls fn for every entry in unspecified order until fn returns
// false.
func (t *Table[V]) Range(fn func(key []byte, v V) bool) {
	for i := range t.segs {
		slots := t.segs[i].slots
		for j := range slots {
			if s := &slots[j]; s.used() && !fn(s.key[:s.keyLen], s.value) {
				return
			}
		}
	}
}

// Stats describes table occupancy for diagnostics.
type Stats struct {
	// Buckets is the slot capacity, summed over the segments.
	Buckets int
	// Live and Tombstones are the entry counts by state.
	Live, Tombstones int
	// MaxProbe is the longest probe sequence any current key needs.
	MaxProbe int
}

// Stats computes occupancy statistics.
func (t *Table[V]) Stats() Stats {
	var st Stats
	for i := range t.segs {
		sg := &t.segs[i]
		st.Buckets += len(sg.slots)
		st.Live += int(sg.live)
		st.Tombstones += int(sg.dead)
		mask := uint64(len(sg.slots) - 1)
		for j := range sg.slots {
			s := &sg.slots[j]
			if !s.used() {
				continue
			}
			probe := 1
			for k := (hash(s.key[:s.keyLen]) >> segBits) & mask; int(k) != j; k = (k + 1) & mask {
				probe++
			}
			st.MaxProbe = max(st.MaxProbe, probe)
		}
	}
	return st
}

// Clone returns a table with t's contents that each side may mutate
// without the other seeing it. Values are copied by assignment and
// therefore shared when V is a pointer type. Only the segment headers are
// copied: both tables give up ownership of every segment, and the first
// Put or Delete on a segment copies just that segment's slots. HART
// publishes its directory as an immutable snapshot behind an atomic
// pointer; shard insertion and removal — rare, per the paper's
// observation that "the hash table only needs to insert a new key
// periodically" — clone the current snapshot, mutate the clone and swap
// it in, so lock-free readers never observe a table mid-mutation, and
// creating a shard copies one segment.
func (t *Table[V]) Clone() *Table[V] {
	if t.lin != nil {
		t.lin.clones.Add(1)
	}
	c := &Table[V]{segs: t.segs, live: t.live, lin: t.lin}
	c.sorted.Store(t.sorted.Load()) // same key set until either side changes it
	t.owned.Store(0)
	return c
}

// Clones returns the number of Clone calls over the table's lineage —
// for HART, how many times the directory was copy-on-write republished
// since this lineage's root was built.
func (t *Table[V]) Clones() uint64 {
	if t.lin == nil {
		return 0
	}
	return t.lin.clones.Value()
}

// DRAMBytes reports the table's memory footprint (Fig. 10b accounting):
// the segment headers, the slot arrays from the real slot layout
// (unsafe.Sizeof covers key, length byte, value word and alignment padding
// exactly as the Go compiler lays them out), and the sorted list if it has
// been built. A slot array two tables share is counted in each.
func (t *Table[V]) DRAMBytes() int64 {
	total := int64(unsafe.Sizeof(t.segs))
	per := int64(unsafe.Sizeof(slot[V]{}))
	for i := range t.segs {
		total += int64(len(t.segs[i].slots)) * per
	}
	if p := t.sorted.Load(); p != nil {
		for _, k := range *p {
			// Sorted-list entry: string header + key bytes.
			total += int64(unsafe.Sizeof("")) + int64(len(k))
		}
	}
	return total
}
