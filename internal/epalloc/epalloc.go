// Package epalloc implements EPallocator, HART's enhanced persistent
// memory allocator (paper Section III.A.4-6, Algorithms 2 and 6).
//
// Existing PM allocators are slow when allocating numerous small objects,
// so EPallocator reserves *memory chunks* of 56 objects at a time and hands
// out objects from them. Each chunk holds:
//
//	+0  header (8 B): bytes 0-6 = 56-bit occupancy bitmap (bit i set =>
//	    slot i live), byte 7 = 6-bit next-free-slot hint (bits 0-5) and
//	    2-bit full indicator (bits 6-7: 00 available, 01 full, 10/11
//	    reserved)
//	+8  PNext (8 B): persistent pointer to the next chunk of the class
//	+16 56 object slots
//
// Chunks of one object class form singly linked persistent lists, so one
// persistent next pointer amortises over 56 objects instead of one per
// leaf (the paper's argument against per-leaf next pointers). The bitmap
// is the durable record of which objects are live: an object allocated but
// whose bit was never set simply reads as free after a crash, which is how
// EPallocator prevents persistent memory leaks. Freed chunks are unlinked
// under a persistent recycle micro-log and pushed onto a free list for
// reuse.
//
// # Striping
//
// Each class's chunks are partitioned across NumStripes stripes, each with
// its own persistent chunk list, persistent free-chunk list, volatile slot
// cache and mutex, so writers mapped to different stripes allocate and
// free with no shared lock at all. The recycle and chunk-transfer
// micro-logs are striped the same way (one slot per stripe, owned by the
// stripe's lock holder). A stripe that runs dry first steals a recycled
// chunk from a sibling stripe's free list — taking exactly the two stripe
// locks in index order — and only reserves fresh arena space, under the
// global chunkMu that keeps the transfer log's address prediction exact,
// when the whole class is dry. Recovery replays every stripe's logs and
// rebuilds every stripe's lists, so fsck still sees each chunk exactly
// once (Check verifies the partition is disjoint and covers all
// registered chunks).
//
// The commit protocol is split between allocator and caller exactly as in
// Algorithm 1: AllocStripe hands out a slot *without* setting its bit
// (marking it volatile-in-flight so concurrent allocations skip it); the
// caller calls SetBit only after the object is fully initialised and
// linked. A crash in between leaves the bit clear and the slot reusable,
// and an operation that gives up before SetBit hands the slot back with
// Free.
//
// A committed slot leaves through one of two doors. Release clears the
// bit, makes the slot allocatable and recycles its chunk if that emptied
// it, under one stripe lock — for callers (a delete, the insert's unwind,
// recovery) that hold the last reference. Retire then Free is the same
// in two halves, for a logged update's old value: Retire clears the bit
// durably but leaves the slot in flight, and Free makes it allocatable
// once the update has no write and no log record outstanding against it.
//
// # DRAM mirrors
//
// The allocator is the only writer of chunk headers, PNext words and list
// heads, and writes each under the stripe lock, so each chunk's volatile
// record (chunkMeta) keeps a copy of its header and links, and each stripe
// of its two heads: filled by Attach's walk, updated after every persist
// of the word. A chunk table indexed by arena offset finds an object's
// record. After Attach, allocation, commit, release, recycle, transfer
// and BitIsSet read only the copies, never PM. The PM words stay the
// durable truth: recovery, Stats and Check read them; Check asserts the
// copies agree.
package epalloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/obs"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// ObjectsPerChunk is the number of object slots per memory chunk (Fig. 2).
const ObjectsPerChunk = 56

// MaxClasses bounds the number of object classes one allocator serves.
const MaxClasses = 16

// NumStripes is the number of allocation stripes per class. Must be a
// power of two and divide NumUpdateLogs.
const NumStripes = 8

// StripeFor maps a shard's directory prefix (its hash key, the key's
// first kh bytes) to an allocation stripe. FNV-1a over the prefix bytes,
// so the mapping depends only on the key — never on execution order —
// which keeps replayed histories allocating from identical stripes.
func StripeFor(prefix []byte) int {
	h := uint32(2166136261)
	for _, b := range prefix {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h) % NumStripes
}

// chunkDataOff is the byte offset of slot 0 within a chunk.
const chunkDataOff = 16

// Superblock layout v3 (relative to the allocator's superblock base, which
// is always the first reservation of the arena, i.e. offset
// pmem.HeaderSize, a cache-line boundary). v2 widened the class table to
// per-stripe list heads and striped the recycle and transfer logs; v3
// aligns the update-log pool to its 32-byte slot size so no slot straddles
// a cache line. Older images are rejected by magic (and, one layer up, by
// the store superblock's format version).
const (
	sbMagicOff      = 0                                   // 8B magic
	sbNumClassesOff = 8                                   // 8B class count
	sbNumStripesOff = 16                                  // 8B stripe count (layout check on Attach)
	sbClassTableOff = 24                                  // MaxClasses × ceSize entries
	sbRLogOff       = sbClassTableOff + MaxClasses*ceSize // NumStripes recycle slots
	sbTLogOff       = sbRLogOff + NumStripes*rlogSlotSize // NumStripes transfer slots
	// NumUpdateLogs update-log slots, aligned up to the slot size.
	sbULogPoolOff = (sbTLogOff + NumStripes*tlogSlotSize + ULogSlotSize - 1) &^ (ULogSlotSize - 1)
	sbSize        = sbULogPoolOff + NumUpdateLogs*ULogSlotSize
)

// Per-class table entry layout: the object size followed by one chunk-list
// head and one free-list head per stripe.
const (
	ceObjSizeOff   = 0
	ceHeadsOff     = 8
	ceFreeHeadsOff = ceHeadsOff + NumStripes*8
	ceSize         = ceFreeHeadsOff + NumStripes*8
)

// Per-stripe recycle-log slot: PPrev (address of the link field pointing
// at the chunk), PCurrent (the chunk; arms the slot), class.
const (
	rlPrevOff    = 0
	rlCurOff     = 8
	rlClassOff   = 16
	rlogSlotSize = 24
)

// Per-stripe chunk-transfer-log slot: PChunk (the chunk joining the
// stripe's list; arms the slot), class, source stripe. The slot index is
// the destination stripe; src == tlSrcFresh marks a fresh arena
// reservation rather than a free-list pop.
const (
	tlChunkOff   = 0
	tlClassOff   = 8
	tlSrcOff     = 16
	tlogSlotSize = 24
)

// tlSrcFresh is the transfer-log source sentinel for fresh reservations.
const tlSrcFresh = NumStripes

const epMagic = 0x4841525445504133 // "HARTEPA3"

// Header-byte-7 encodings.
const (
	fullAvailable = 0x0
	fullFull      = 0x1
)

// Errors returned by the allocator.
var (
	// ErrTooManyClasses reports a New call exceeding MaxClasses.
	ErrTooManyClasses = errors.New("epalloc: too many object classes")
	// ErrBadMagic reports that Attach found no allocator superblock.
	ErrBadMagic = errors.New("epalloc: bad superblock magic")
	// ErrNotChunkObject reports a pointer that is not a slot managed here.
	ErrNotChunkObject = errors.New("epalloc: pointer is not an allocated object slot")
	// ErrCorrupt reports an fsck failure.
	ErrCorrupt = errors.New("epalloc: corrupt allocator state")
)

// Class identifies one object size class.
type Class int

// ClassSpec describes an object class.
type ClassSpec struct {
	// Name labels the class in diagnostics ("leaf24", "value16", ...).
	Name string
	// ObjSize is the slot size in bytes; must be a positive multiple of 8.
	ObjSize int64
}

// chunkMeta is the volatile record of one chunk: its extent and class
// (immutable), its owning stripe, DRAM mirrors of its PM header and list
// links, and the slot bookkeeping that never reaches PM. One record exists
// per chunk for the allocator's lifetime — chunks move between lists and
// stripes but are never destroyed — and the chunk table points at it.
type chunkMeta struct {
	start, end pmem.Ptr
	class      Class
	// stripe is the chunk's current owner. It changes only in a
	// cross-stripe free-list steal, which holds both stripes' locks, so it
	// is stable under the lock of the stripe it names (see lockChunk);
	// atomic because lookups read it before taking that lock.
	stripe atomic.Int32
	// hdr mirrors the chunk's 8-byte PM header. The allocator is the
	// header's only writer and writes it under the stripe lock, so the hot
	// paths read the bitmap, hint and indicator from here instead of from
	// PM — where the previous writeHeader's CLFLUSH has just evicted the
	// line. It is stored only after the PM word is persisted, so the
	// lock-free BitIsSet never reports a bit that is not yet durable.
	// Check asserts mirror == PM for every chunk.
	hdr atomic.Uint64
	// next mirrors the PNext word; prev is the chunk-list predecessor (nil
	// at the head and on the free list), so a recycle finds its link field
	// without walking PM. Written under the stripe lock once PM is.
	prev, next *chunkMeta
	// inFlight marks slots that are neither allocatable nor committed:
	// handed out by AllocStripe and not yet bit-committed, or retired
	// (bit cleared) by an operation that is not done with them yet
	// (Retire). Free hands either back. Guarded by the stripe lock.
	inFlight uint64
	inAvail  bool // chunk is queued in stripeState.avail; stripe lock
}

// ptr returns the chunk's address, Nil for no chunk.
func (m *chunkMeta) ptr() pmem.Ptr {
	if m == nil {
		return pmem.Nil
	}
	return m.start
}

// chunkMetaBytes is the volatile cost of one chunk besides its share of
// the chunk table: its record and its avail-queue slot.
const chunkMetaBytes = int64(unsafe.Sizeof(chunkMeta{}) + unsafe.Sizeof((*chunkMeta)(nil)))

// stripeState is the volatile state of one allocation stripe of a class.
type stripeState struct {
	mu sync.Mutex
	// avail queues chunks believed to have a free slot.
	avail []*chunkMeta
	// head and freeHead mirror the PM list heads, written under mu once PM
	// is; freeHead is atomic for a dry sibling's unlocked peek.
	head     *chunkMeta
	freeHead atomic.Pointer[chunkMeta]
}

// classState is volatile per-class state.
type classState struct {
	spec    ClassSpec
	stripes [NumStripes]stripeState
	// nchunks counts chunks ever created for the class across all stripes
	// (cycle guard for list walks; chunks move stripes but are never
	// destroyed).
	nchunks    atomic.Int64
	tableBytes atomic.Int64 // chunk-table pages the class's chunks made
}

// tableEntry is the chunk table's record of one span of the arena: the
// chunk that began before the span and runs into it, and the one that
// begins inside it. No span is longer than a chunk, so no span holds two
// chunk starts.
type tableEntry struct{ before, within atomic.Pointer[chunkMeta] }

// tablePage is the chunk table's unit of growth.
type tablePage [tablePageEntries]tableEntry

const tablePageEntries = 256

// Allocator is one EPallocator instance over one arena.
type Allocator struct {
	arena   *pmem.Arena
	sb      pmem.Ptr
	classes []classState

	// chunkMu serialises fresh arena reservations so the transfer log's
	// predicted address is exact. It is the innermost lock (acquired with
	// stripe locks held) and is untouched by the free-list fast paths.
	chunkMu sync.Mutex

	ulogs ulogPool

	// table is the chunk table: entry i covers [i, i+1)<<tableShift, the
	// span being the largest power of two no longer than the smallest
	// chunk. A page is made when a chunk is first filed in it and
	// published by atomic pointer. Entries are written under chunkMu (or by
	// Attach) before the chunk hands out an object and never change after,
	// so lookups, the lock-free BitIsSet among them, take no lock.
	table      []atomic.Pointer[tablePage]
	tableShift uint

	// Fault injectors (inject.go); disarmed by New/Attach.
	failSetBit, failClearBit, failAlloc faultCounter

	// metrics is the always-on counter set (metrics.go); events, when
	// non-nil (SetEventRing), receives rare structured events.
	metrics Metrics
	events  *obs.EventRing
}

// chunkSize returns the full byte size of a chunk of the class.
func chunkSize(objSize int64) int64 { return chunkDataOff + ObjectsPerChunk*objSize }

// New formats a fresh EPallocator on the arena. It must be the first
// reservation made on the arena (the superblock lives at a fixed offset so
// Attach can find it after a crash).
func New(arena *pmem.Arena, specs []ClassSpec) (*Allocator, error) {
	if len(specs) == 0 || len(specs) > MaxClasses {
		return nil, ErrTooManyClasses
	}
	for i, s := range specs {
		if s.ObjSize <= 0 || s.ObjSize%8 != 0 {
			return nil, fmt.Errorf("epalloc: class %d (%s) size %d is not a positive multiple of 8",
				i, s.Name, s.ObjSize)
		}
	}
	sb, err := arena.Reserve(sbSize, 8)
	if err != nil {
		return nil, err
	}
	if sb != pmem.Ptr(pmem.HeaderSize) {
		return nil, fmt.Errorf("epalloc: superblock at %d, want %d (allocator must own the arena's first reservation)",
			sb, pmem.HeaderSize)
	}
	a := newAllocator(arena, sb, specs)
	arena.Write8(sb+sbNumClassesOff, uint64(len(specs)))
	arena.Write8(sb+sbNumStripesOff, NumStripes)
	for i, s := range specs {
		ce := a.classEntry(Class(i))
		arena.Write8(ce+ceObjSizeOff, uint64(s.ObjSize))
		for st := 0; st < NumStripes; st++ {
			arena.WritePtr(a.headAddr(Class(i), st), pmem.Nil)
			arena.WritePtr(a.freeHeadAddr(Class(i), st), pmem.Nil)
		}
	}
	// Logs start empty (arena memory is zeroed, but be explicit).
	for off := int64(sbRLogOff); off < sbSize; off += 8 {
		arena.Write8(sb+pmem.Ptr(off), 0)
	}
	// Magic last: an allocator is attachable only once fully formatted.
	arena.Persist(sb, sbSize)
	arena.Write8(sb+sbMagicOff, epMagic)
	arena.Persist(sb+sbMagicOff, 8)
	return a, nil
}

// newAllocator builds the volatile Allocator shell shared by New and
// Attach.
func newAllocator(arena *pmem.Arena, sb pmem.Ptr, specs []ClassSpec) *Allocator {
	a := &Allocator{arena: arena, sb: sb, classes: make([]classState, len(specs))}
	a.ulogs.cond = sync.NewCond(&a.ulogs.mu)
	for i := range a.ulogs.slots {
		a.ulogs.slots[i] = ULog{a: a, idx: i, base: a.ulogAddr(i)}
	}
	a.DisarmFaults()
	a.tableShift = 63
	for i, s := range specs {
		a.classes[i].spec = s
		a.tableShift = min(a.tableShift, uint(bits.Len64(uint64(chunkSize(s.ObjSize))))-1)
	}
	a.table = make([]atomic.Pointer[tablePage], arena.Capacity()>>a.tableShift/tablePageEntries+1)
	return a
}

// Attach opens an existing EPallocator after a restart or crash. It
// rebuilds all volatile state by walking every stripe's persistent chunk
// lists and completes any interrupted recycle or transfer operation
// recorded in the per-stripe micro-logs. specs must match the specs the
// allocator was formatted with (sizes are validated against PM).
func Attach(arena *pmem.Arena, specs []ClassSpec) (*Allocator, error) {
	sb := pmem.Ptr(pmem.HeaderSize)
	if arena.Reserved() < pmem.HeaderSize+sbSize || arena.Read8(sb+sbMagicOff) != epMagic {
		return nil, ErrBadMagic
	}
	n := int(arena.Read8(sb + sbNumClassesOff))
	if n != len(specs) {
		return nil, fmt.Errorf("epalloc: superblock has %d classes, caller supplied %d", n, len(specs))
	}
	if ns := arena.Read8(sb + sbNumStripesOff); ns != NumStripes {
		return nil, fmt.Errorf("epalloc: superblock has %d stripes, this build uses %d", ns, NumStripes)
	}
	a := newAllocator(arena, sb, specs)
	for i, s := range specs {
		ce := a.classEntry(Class(i))
		pmSize := int64(arena.Read8(ce + ceObjSizeOff))
		if pmSize != s.ObjSize {
			return nil, fmt.Errorf("epalloc: class %d (%s) size mismatch: PM %d, caller %d",
				i, s.Name, pmSize, s.ObjSize)
		}
	}
	if err := a.recoverLogs(); err != nil {
		return nil, err
	}
	// Rebuild the volatile state from the persistent per-stripe lists.
	// Filing each chunk in the table refuses a wild pointer and a chunk met
	// twice, so every walk ends. Each chunk-list chunk's header is read
	// once, filling its mirror; a free-list chunk's header is zero by
	// construction (only an empty chunk is recycled, and every header write
	// is packHeader of its bitmap), so its mirror starts at zero unread.
	for i := range a.classes {
		c := Class(i)
		cs := &a.classes[i]
		for st := 0; st < NumStripes; st++ {
			ss := &cs.stripes[st]
			for listNo, head := range []pmem.Ptr{a.head(c, st), a.freeHead(c, st)} {
				inFree := listNo == 1
				var prev *chunkMeta
				for p := head; !p.IsNil(); p = a.arena.ReadPtr(p + 8) {
					m, err := a.fileChunk(p, c, st)
					if err != nil {
						return nil, err
					}
					if prev != nil {
						prev.next = m
					} else if inFree {
						ss.freeHead.Store(m)
					} else {
						ss.head = m
					}
					if !inFree {
						m.prev = prev
						h := a.readHeader(p)
						m.hdr.Store(uint64(h))
						if h.free() > 0 {
							ss.queueAvail(m)
						}
					}
					prev = m
				}
			}
		}
	}
	return a, nil
}

// Arena returns the underlying arena.
func (a *Allocator) Arena() *pmem.Arena { return a.arena }

// classEntry returns the PM address of the class table entry.
func (a *Allocator) classEntry(c Class) pmem.Ptr {
	return a.sb + sbClassTableOff + pmem.Ptr(int64(c)*ceSize)
}

// headAddr returns the PM address of the stripe's chunk-list head field.
func (a *Allocator) headAddr(c Class, stripe int) pmem.Ptr {
	return a.classEntry(c) + ceHeadsOff + pmem.Ptr(stripe*8)
}

// freeHeadAddr returns the PM address of the stripe's free-list head field.
func (a *Allocator) freeHeadAddr(c Class, stripe int) pmem.Ptr {
	return a.classEntry(c) + ceFreeHeadsOff + pmem.Ptr(stripe*8)
}

// head reads the stripe's chunk-list head.
func (a *Allocator) head(c Class, stripe int) pmem.Ptr {
	return a.arena.ReadPtr(a.headAddr(c, stripe))
}

// freeHead reads the stripe's free-list head.
func (a *Allocator) freeHead(c Class, stripe int) pmem.Ptr {
	return a.arena.ReadPtr(a.freeHeadAddr(c, stripe))
}

// rlogAddr returns the PM base address of the stripe's recycle-log slot.
func (a *Allocator) rlogAddr(stripe int) pmem.Ptr {
	return a.sb + sbRLogOff + pmem.Ptr(stripe*rlogSlotSize)
}

// tlogAddr returns the PM base address of the stripe's transfer-log slot.
func (a *Allocator) tlogAddr(stripe int) pmem.Ptr {
	return a.sb + sbTLogOff + pmem.Ptr(stripe*tlogSlotSize)
}

// header manipulates the packed 8-byte chunk header.
type header uint64

const bitmapMask = (uint64(1) << ObjectsPerChunk) - 1

// bitmap extracts the 56-bit occupancy bitmap.
func (h header) bitmap() uint64 { return uint64(h) & bitmapMask }

// nextFree extracts the 6-bit next-free-slot hint.
func (h header) nextFree() int { return int(uint64(h) >> 56 & 0x3f) }

// fullIndicator extracts the 2-bit full indicator.
func (h header) fullIndicator() int { return int(uint64(h) >> 62) }

// free returns the number of clear bitmap bits.
func (h header) free() int { return ObjectsPerChunk - bits.OnesCount64(h.bitmap()) }

// makeHeader packs a header.
func makeHeader(bitmap uint64, nextFree, full int) header {
	return header(bitmap&bitmapMask | uint64(nextFree&0x3f)<<56 | uint64(full&0x3)<<62)
}

// readHeader loads a chunk header from PM. The hot paths read the DRAM
// mirror instead (chunkMeta.hdr); this is for Attach, which fills the
// mirror, and for the walks that audit or report PM state (Iterate*,
// Stats, Check).
func (a *Allocator) readHeader(chunk pmem.Ptr) header {
	return header(a.arena.Read8(chunk))
}

// writeHeader stores and persists a chunk header, then updates its mirror;
// the header is 8 bytes so the commit is failure-atomic. Caller holds the
// chunk's stripe lock.
func (a *Allocator) writeHeader(m *chunkMeta, h header) {
	a.arena.Write8(m.start, uint64(h))
	a.arena.Persist(m.start, 8)
	m.hdr.Store(uint64(h))
}

// fileChunk creates the record of the chunk of class c at p, owned by the
// stripe, and files it in the chunk table. It refuses a pointer that
// cannot be a chunk: unaligned, outside [end of superblock, Reserved()),
// or over a chunk already filed. Caller holds chunkMu, or is Attach.
func (a *Allocator) fileChunk(p pmem.Ptr, c Class, stripe int) (*chunkMeta, error) {
	cs := &a.classes[c]
	end := p + pmem.Ptr(chunkSize(cs.spec.ObjSize))
	if reserved := pmem.Ptr(a.arena.Reserved()); p < a.sb+sbSize || p%8 != 0 || end < p || end > reserved {
		return nil, fmt.Errorf("%w: class %s chunk pointer %d is not 8-aligned within the chunk area [%d,%d)",
			ErrCorrupt, cs.spec.Name, p, a.sb+sbSize, reserved)
	}
	first, last := uint64(p)>>a.tableShift, uint64(end-1)>>a.tableShift
	for i := first; i <= last; i++ {
		e := a.entry(i)
		for _, q := range [2]*chunkMeta{e.before.Load(), e.within.Load()} {
			if q == nil || q.start >= end || q.end <= p {
				continue
			}
			if q.start == p {
				return nil, fmt.Errorf("%w: class %s chunk %d reachable twice across stripe lists",
					ErrCorrupt, cs.spec.Name, p)
			}
			return nil, fmt.Errorf("%w: class %s chunk %d overlaps %s chunk %d",
				ErrCorrupt, cs.spec.Name, p, a.classes[q.class].spec.Name, q.start)
		}
	}
	m := &chunkMeta{start: p, end: end, class: c}
	m.stripe.Store(int32(stripe))
	cs.nchunks.Add(1)
	for i := first; i <= last; i++ {
		pg := &a.table[i/tablePageEntries]
		if pg.Load() == nil {
			pg.Store(new(tablePage))
			cs.tableBytes.Add(int64(unsafe.Sizeof(tablePage{})))
		}
		if e := &pg.Load()[i%tablePageEntries]; i == first {
			e.within.Store(m)
		} else {
			e.before.Store(m)
		}
	}
	return m, nil
}

// noEntry stands for every entry of a page not made; it is never written.
var noEntry tableEntry

// entry returns chunk-table entry i.
func (a *Allocator) entry(i uint64) *tableEntry {
	if i/tablePageEntries < uint64(len(a.table)) {
		if pg := a.table[i/tablePageEntries].Load(); pg != nil {
			return &pg[i%tablePageEntries]
		}
	}
	return &noEntry
}

// chunks yields every filed chunk's record, in address order.
func (a *Allocator) chunks(yield func(*chunkMeta) bool) {
	for i := range a.table {
		if pg := a.table[i].Load(); pg != nil {
			for j := range pg {
				if m := pg[j].within.Load(); m != nil && !yield(m) {
					return
				}
			}
		}
	}
}

// lookupChunk finds the record of the chunk containing obj: one table
// index and one compare, with no lock, so the validity check HART's
// locked Get performs on a leaf (BitIsSet, Algorithm 4 line 9) costs no
// shared-lock round trip.
func (a *Allocator) lookupChunk(obj pmem.Ptr) (*chunkMeta, error) {
	e := a.entry(uint64(obj) >> a.tableShift)
	m := e.within.Load()
	if m == nil || obj < m.start {
		m = e.before.Load()
	}
	if m == nil || obj < m.start+chunkDataOff || obj >= m.end {
		return nil, ErrNotChunkObject
	}
	return m, nil
}

// lockChunk locks and returns the stripe currently owning the chunk. A
// concurrent free-list steal can move the chunk to another stripe between
// the lookup and the lock, so the record's stripe field is re-read under
// the lock and the acquisition retried if it moved (a steal holds the
// source stripe's lock, so once we hold the lock of the stripe the record
// names, the chunk cannot move).
func (a *Allocator) lockChunk(m *chunkMeta) *stripeState {
	for {
		st := m.stripe.Load()
		ss := &a.classes[m.class].stripes[st]
		ss.mu.Lock()
		if m.stripe.Load() == st {
			return ss
		}
		ss.mu.Unlock()
	}
}

// ChunkOf returns the chunk containing obj (the paper's MemChunkOf).
func (a *Allocator) ChunkOf(obj pmem.Ptr) (pmem.Ptr, error) {
	m, err := a.lookupChunk(obj)
	return m.ptr(), err
}

// ClassOf returns the class owning obj.
func (a *Allocator) ClassOf(obj pmem.Ptr) (Class, error) {
	m, err := a.lookupChunk(obj)
	if err != nil {
		return 0, err
	}
	return m.class, nil
}

// StripeOf returns the stripe currently owning obj's chunk (diagnostics
// and tests; the answer can be stale the moment it returns).
func (a *Allocator) StripeOf(obj pmem.Ptr) (int, error) {
	m, err := a.lookupChunk(obj)
	if err != nil {
		return 0, err
	}
	return int(m.stripe.Load()), nil
}

// slotOf resolves obj, which must be a slot base address, to its chunk's
// record and the slot's bitmap bit. It takes no lock; lockChunk does.
func (a *Allocator) slotOf(obj pmem.Ptr) (*chunkMeta, uint64, error) {
	m, err := a.lookupChunk(obj)
	if err != nil {
		return nil, 0, err
	}
	objSize := a.classes[m.class].spec.ObjSize
	rel := int64(obj - m.start - chunkDataOff)
	if rel%objSize != 0 {
		return nil, 0, fmt.Errorf("%w: %d is not a slot base", ErrNotChunkObject, obj)
	}
	return m, 1 << uint(rel/objSize), nil
}

// SlotAddr returns the base address of slot idx of a chunk.
func (a *Allocator) SlotAddr(chunk pmem.Ptr, c Class, idx int) pmem.Ptr {
	return chunk + chunkDataOff + pmem.Ptr(int64(idx)*a.classes[c].spec.ObjSize)
}
