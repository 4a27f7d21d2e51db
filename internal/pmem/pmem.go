// Package pmem simulates byte-addressable persistent memory (PM).
//
// The paper runs on DRAM standing in for PM; this package gives Go code the
// same programming model that C code gets on such a platform, which the Go
// runtime otherwise denies us (the GC moves nothing today but owns all
// pointers, and Go exposes no CLFLUSH):
//
//   - An Arena is a single flat region addressed by 64-bit offsets (Ptr).
//     Persistent data structures store Ptr values, never Go pointers, so
//     the garbage collector is irrelevant to persistence, exactly as on a
//     real DAX mapping.
//
//   - Writes land in the volatile view (the "CPU cache" side). Data becomes
//     durable only when Persist is called on it, modelling the
//     {MFENCE, CLFLUSH, MFENCE} sequence the paper calls persistent().
//     With tracking enabled, the Arena maintains a separate durable view;
//     Crash() discards everything not yet persisted, and crash-point
//     injection (FailAfterPersists) lets tests crash at every persist
//     boundary of an algorithm.
//
//   - Every PM load, store and persist is counted once, on a counter stripe
//     chosen by its page. With emulation configured (Config.Latency or
//     Config.Cache) it is also routed through the cachesim model and the
//     latency Clock, reproducing the paper's PM latency emulation; without,
//     the emulation hook is nil and the access pays one nil check.
//
// The first HeaderSize bytes of an arena hold the arena's own metadata
// (magic, capacity, bump cursor) followed by the application label area
// (see LabelBase), a fixed-offset region the embedding store uses for its
// superblock. Reservations are handed out by a persistent bump allocator;
// structured allocation/free on top of it is the job of package epalloc.
//
// The medium under an arena is pluggable (see Backend): the simulated
// in-memory region above, or a file-backed mmap (FileBackend) where the
// image genuinely survives process restarts.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/cachesim"
	"github.com/casl-sdsu/hart/internal/cpu"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/obs"
)

// Ptr is a persistent pointer: a byte offset into an Arena. The zero value
// is the nil pointer; offset 0 is occupied by the arena header so no valid
// object ever has Ptr 0.
type Ptr uint64

// Nil is the null persistent pointer.
const Nil Ptr = 0

// IsNil reports whether p is the null pointer.
func (p Ptr) IsNil() bool { return p == Nil }

// HeaderSize is the number of bytes at the start of every arena reserved
// ahead of the bump allocator: the arena's own metadata (magic, capacity,
// cursor — the first LabelBase bytes) followed by the application label
// area. The first reservation an application makes always lands at offset
// HeaderSize, which is how the allocators find their superblocks after a
// restart.
const HeaderSize = 256

// LabelBase is the byte offset of the application label area, the
// LabelSize bytes between the arena's private metadata and the first
// reservation. It exists for the embedding store's superblock (format
// version, geometry, clean flag): a fixed offset the store can read
// before any allocator state is interpreted. The area is ordinary
// persistent space — Write8/Persist work on it — but no reservation ever
// overlaps it.
const LabelBase = 64

// LabelSize is the size of the application label area in bytes.
const LabelSize = HeaderSize - LabelBase

const (
	arenaMagic = 0x48415254504d454d // "HARTPMEM"

	offMagic    = 0  // 8B magic
	offCapacity = 8  // 8B capacity
	offCursor   = 16 // 8B bump cursor
)

// lineSize mirrors cachesim.LineSize; persistence granularity is one line.
const lineSize = cachesim.LineSize

// Errors returned by Arena operations.
var (
	// ErrOutOfMemory reports that a reservation exceeded arena capacity.
	ErrOutOfMemory = errors.New("pmem: arena out of memory")
	// ErrBadMagic reports that Attach found no valid arena header.
	ErrBadMagic = errors.New("pmem: bad arena magic")
	// ErrNoTracking reports that a durability operation requires tracking.
	ErrNoTracking = errors.New("pmem: durable view requires Tracking mode")
)

// CrashError is the panic value raised by injected crash points. Tests
// recover it, take the durable image, and exercise recovery.
type CrashError struct {
	// Persists is the number of persists that completed before the crash.
	Persists int64
	// Site is the persist-site label current when the crash fired (set by
	// SetPersistSite; empty when the crashing code path is unlabeled).
	Site string
}

// Error implements the error interface.
func (e CrashError) Error() string {
	if e.Site != "" {
		return fmt.Sprintf("pmem: injected crash after %d persists (site %s)", e.Persists, e.Site)
	}
	return fmt.Sprintf("pmem: injected crash after %d persists", e.Persists)
}

// Config parameterises an Arena.
type Config struct {
	// Size is the arena capacity in bytes (minimum HeaderSize).
	Size int64
	// Tracking enables the durable shadow view and dirty-line accounting
	// needed by Crash and crash-point injection. It roughly doubles memory
	// use and slows writes, so benchmarks leave it off.
	Tracking bool
	// Latency selects the PM latency emulation; the zero value disables it.
	Latency latency.Config
	// Cache optionally supplies a shared CPU cache model for read-latency
	// accounting. Nil disables cache modelling: with a latency config every
	// PM read then counts as a miss, without one reads are free.
	Cache *cachesim.Cache
}

// Stats is a snapshot of arena counters.
type Stats struct {
	// Capacity is the arena size in bytes.
	Capacity int64
	// Reserved is the high-water mark of the bump allocator.
	Reserved int64
	// Persists counts Persist invocations.
	Persists int64
	// PersistedLines counts cache lines flushed by Persist.
	PersistedLines int64
	// Reads counts load operations (ReadAt/Read8/ReadByte calls).
	Reads int64
	// Writes counts store operations.
	Writes int64
	// BytesWritten is the total payload of store operations.
	BytesWritten int64
	// Syncs counts whole-device Sync calls.
	Syncs int64
}

// Arena is one simulated PM device. Loads and stores to disjoint regions
// may proceed concurrently (callers provide their own higher-level
// locking, as the paper's trees do); reservation and durability operations
// are internally synchronised.
type Arena struct {
	data    []byte
	backend Backend
	// emu is nil unless the arena emulates PM latency (see emulator).
	emu *emulator

	// Tracking state.
	tracking bool
	shadowMu sync.Mutex // guards shadow during Persist/Crash snapshots
	shadow   []byte
	dirty    []atomic.Uint64 // bitmap, one bit per line

	reserveMu sync.Mutex

	// crashBudget < 0 disables crash injection. Otherwise it is the number
	// of persists still allowed to apply; a Persist that finds it at 0
	// panics with CrashError before applying (takeCrashBudget).
	crashBudget atomic.Int64

	// site labels the persist boundaries currently being executed for
	// crash diagnostics (SetPersistSite). Maintained only in Tracking
	// mode so the label stores cost nothing on benchmark arenas.
	site atomic.Pointer[string]

	// The event counters, each striped by the page of the access
	// (pageStripe), so goroutines working on different pages increment
	// different cache lines. The pad keeps the first stripe off the line
	// of the read-mostly fields above, which every access loads.
	_              [64]byte
	persists       obs.Counter
	persistedLines obs.Counter
	reads          obs.Counter
	writes         obs.Counter
	bytesWritten   obs.Counter
	syncs          obs.Counter

	// timing gates the Persist/Sync latency histograms below: one atomic
	// flag load on the persist path when off (obs.Gate); when on, sample
	// clocks one persist in 2^obs.SampleShift — persists fire several
	// times per write op, so unsampled timing would multiply a slow
	// host's clock cost past the enabled-overhead budget. Counters above
	// are always on.
	timing   obs.Gate
	sample   obs.Sampler
	persistH obs.Histogram
	syncH    obs.Histogram
}

// New creates and formats a fresh arena on the simulated in-memory
// medium.
func New(cfg Config) (*Arena, error) {
	if cfg.Size < HeaderSize {
		return nil, fmt.Errorf("pmem: arena size %d below minimum %d", cfg.Size, HeaderSize)
	}
	return NewOnBackend(newMemBackend(cfg.Size), cfg)
}

// NewOnBackend formats a fresh arena onto a backend's (zeroed) region.
// The arena's capacity is the backend's region size; cfg.Size is ignored.
func NewOnBackend(be Backend, cfg Config) (*Arena, error) {
	size := int64(len(be.Bytes()))
	if size < HeaderSize {
		return nil, fmt.Errorf("pmem: backend region %d bytes below minimum %d", size, HeaderSize)
	}
	a := newArena(be, cfg)
	if a.tracking {
		a.shadow = make([]byte, size)
	}
	binary.LittleEndian.PutUint64(a.data[offMagic:], arenaMagic)
	binary.LittleEndian.PutUint64(a.data[offCapacity:], uint64(size))
	binary.LittleEndian.PutUint64(a.data[offCursor:], HeaderSize)
	a.persistRange(0, HeaderSize)
	return a, nil
}

// Attach wraps an existing durable image (e.g. one returned by
// DurableImage, or persisted externally by an application) in a new Arena
// on the in-memory medium.
func Attach(img []byte, cfg Config) (*Arena, error) {
	return AttachBackend(memBackendFor(img), cfg)
}

// AttachBackend attaches to an existing arena image held by a backend,
// validating the header (magic, capacity against the region size, cursor
// bounds) so torn or truncated media fail here instead of corrupting
// later interpretation.
func AttachBackend(be Backend, cfg Config) (*Arena, error) {
	img := be.Bytes()
	if err := validateImage(img); err != nil {
		return nil, err
	}
	a := newArena(be, cfg)
	if a.tracking {
		a.shadow = make([]byte, len(img))
		copy(a.shadow, img)
	}
	return a, nil
}

// newArena builds the volatile arena shell shared by format and attach.
func newArena(be Backend, cfg Config) *Arena {
	a := &Arena{
		data:     be.Bytes(),
		backend:  be,
		emu:      newEmulator(cfg),
		tracking: cfg.Tracking,
	}
	a.crashBudget.Store(-1)
	if cfg.Tracking {
		a.dirty = make([]atomic.Uint64, (numLines(int64(len(a.data)))+63)/64)
	}
	return a
}

// Sync flushes the entire arena on its medium: msync for a file backend,
// no-op in memory. It is the whole-device durability point Close also
// takes; Persist remains the fine-grained one.
func (a *Arena) Sync() error {
	a.syncs.Add(1)
	if a.timing.Enabled() {
		start := time.Now()
		err := a.backend.Sync()
		a.syncH.Record(time.Since(start).Nanoseconds())
		return err
	}
	return a.backend.Sync()
}

// Close flushes and releases the medium. The arena must not be written
// after Close; a file-backed arena's data slice is unmapped and must not
// be touched at all.
func (a *Arena) Close() error { return a.backend.Close() }

func numLines(size int64) int64 {
	return (size + lineSize - 1) / lineSize
}

// Clock returns the arena's latency clock. An arena without emulation
// returns an idle clock that never charges.
func (a *Arena) Clock() *latency.Clock {
	if a.emu == nil {
		return latency.NewClock(latency.Off())
	}
	return a.emu.clock
}

// Capacity returns the arena size in bytes.
func (a *Arena) Capacity() int64 { return int64(len(a.data)) }

// Reserved returns the bump-allocator high-water mark.
func (a *Arena) Reserved() int64 {
	a.reserveMu.Lock()
	defer a.reserveMu.Unlock()
	return int64(binary.LittleEndian.Uint64(a.data[offCursor:]))
}

// Reserve carves size bytes out of the arena with the given alignment
// (which must be a power of two; 0 means 8). The cursor update is itself
// persisted, so reservations are never lost across a crash — a crash can
// only leak the reserved space, which is precisely the failure mode
// EPallocator's bitmaps exist to repair.
func (a *Arena) Reserve(size int64, align int64) (Ptr, error) {
	if align == 0 {
		align = 8
	}
	if align&(align-1) != 0 {
		return Nil, fmt.Errorf("pmem: alignment %d is not a power of two", align)
	}
	if size <= 0 {
		return Nil, fmt.Errorf("pmem: invalid reservation size %d", size)
	}
	a.reserveMu.Lock()
	defer a.reserveMu.Unlock()
	cur := int64(binary.LittleEndian.Uint64(a.data[offCursor:]))
	start := (cur + align - 1) &^ (align - 1)
	if start+size > int64(len(a.data)) {
		return Nil, fmt.Errorf("%w: need %d bytes at %d, capacity %d",
			ErrOutOfMemory, size, start, len(a.data))
	}
	binary.LittleEndian.PutUint64(a.data[offCursor:], uint64(start+size))
	// The cursor lives inside the arena header, below the range check's
	// floor; persist it via the unchecked path. It is still a real,
	// injectable persist boundary.
	a.persistAt(Ptr(offCursor), 8)
	return Ptr(start), nil
}

// check panics if [p, p+size) is out of bounds. Out-of-bounds PM access is
// a program bug (wild persistent pointer), not a runtime condition. The
// lower bound is LabelBase, not 1: the first LabelBase bytes hold the
// arena's own metadata (magic, capacity, bump cursor), and a wild pointer
// into them (0 < p < LabelBase) would silently corrupt the header —
// rejecting only Ptr(0) let exactly that through. The label area
// [LabelBase, HeaderSize) is legitimately addressable: it holds the
// embedding store's superblock.
func (a *Arena) check(p Ptr, size int) {
	if p < LabelBase || size < 0 || int64(p)+int64(size) > int64(len(a.data)) {
		panic(fmt.Sprintf("pmem: access [%d,%d) out of arena bounds [%d,%d)",
			p, int64(p)+int64(size), LabelBase, len(a.data)))
	}
}

// checkAligned panics on a misaligned word access. Every legitimate
// 8-byte arena access is 8-aligned (reservations, chunk slots and log
// fields all are); an unaligned offset is a wild or miscomputed pointer,
// and silently degrading to a non-atomic plain load — as this package
// once did — hands a lock-free reader a tearable word. Same policy as
// check: program bug, so panic.
func checkAligned(p Ptr) {
	if p%8 != 0 {
		panic(fmt.Sprintf("pmem: unaligned 8-byte word access at %d", p))
	}
}

// pageStripe is the counter stripe of an access at p: its 4 KiB page, so
// concurrent work on neighbouring pages lands on distinct cells.
func pageStripe(p Ptr) int { return int(p >> 12) }

// chargeRead counts one PM load and hands it to the emulation, if any.
func (a *Arena) chargeRead(p Ptr, size int) {
	a.reads.AddStripe(pageStripe(p), 1)
	if a.emu != nil {
		a.emu.read(p, size)
	}
}

// chargeWrite counts one PM store and hands it to the emulation, if any.
// Stores themselves are DRAM-speed; only Persist pays the PM write
// latency.
func (a *Arena) chargeWrite(p Ptr, size int) {
	s := pageStripe(p)
	a.writes.AddStripe(s, 1)
	a.bytesWritten.AddStripe(s, uint64(size))
	if a.emu != nil {
		a.emu.write(p, size)
	}
}

// markDirty records the written lines as not-yet-durable.
func (a *Arena) markDirty(p Ptr, size int) {
	if !a.tracking {
		return
	}
	first := int64(p) / lineSize
	last := (int64(p) + int64(size) - 1) / lineSize
	for line := first; line <= last; line++ {
		a.dirty[line/64].Or(1 << uint(line%64))
	}
}

// ReadAt copies len(buf) bytes at p into buf.
func (a *Arena) ReadAt(p Ptr, buf []byte) {
	a.check(p, len(buf))
	a.chargeRead(p, len(buf))
	copy(buf, a.data[p:int64(p)+int64(len(buf))])
}

// WriteAt stores data at p.
func (a *Arena) WriteAt(p Ptr, data []byte) {
	a.check(p, len(data))
	a.chargeWrite(p, len(data))
	copy(a.data[p:int64(p)+int64(len(data))], data)
	a.markDirty(p, len(data))
}

// Read8 loads a little-endian uint64 at p. p must be 8-byte aligned so
// the load is single-copy atomic — with respect to crashes and, because
// the load goes through sync/atomic, with respect to concurrent Write8
// stores from writers that a lock-free reader does not exclude (see
// atomic.go). Unaligned addresses panic (checkAligned): they used to fall
// back to a plain, tearable load, which silently broke exactly the
// guarantee callers come here for.
func (a *Arena) Read8(p Ptr) uint64 {
	a.check(p, 8)
	checkAligned(p)
	a.chargeRead(p, 8)
	return le64(atomic.LoadUint64(a.word(p)))
}

// Write8 stores a little-endian uint64 at p (8-byte aligned; unaligned
// addresses panic). The store is atomic so lock-free readers racing it
// observe either the old or the new word, never a torn mix.
func (a *Arena) Write8(p Ptr, v uint64) {
	a.check(p, 8)
	checkAligned(p)
	a.chargeWrite(p, 8)
	atomic.StoreUint64(a.word(p), le64(v))
	a.markDirty(p, 8)
}

// ReadWords copies len(buf) bytes at p into buf using aligned atomic
// 8-byte loads, so it may race atomic word stores (WriteWords, Write8)
// without tearing words or tripping the race detector. p must be 8-byte
// aligned and the containing object must extend to the next word boundary
// past len(buf). Latency accounting matches ReadAt: one charged load.
func (a *Arena) ReadWords(p Ptr, buf []byte) {
	n := len(buf)
	words := (n + 7) / 8
	a.check(p, words*8)
	checkAligned(p)
	a.chargeRead(p, n)
	for i := 0; i < words; i++ {
		w := le64(atomic.LoadUint64(a.word(p + Ptr(i*8))))
		if (i+1)*8 <= n {
			binary.LittleEndian.PutUint64(buf[i*8:], w)
			continue
		}
		for b := i * 8; b < n; b++ {
			buf[b] = byte(w >> (uint(b%8) * 8))
		}
	}
}

// WriteWords stores data at p using aligned atomic 8-byte stores, zero
// padding the final partial word. The counterpart of ReadWords for object
// payloads (HART value objects) that lock-free readers may load while a
// writer initialises a reused slot. Accounting matches WriteAt.
func (a *Arena) WriteWords(p Ptr, data []byte) {
	n := len(data)
	words := (n + 7) / 8
	a.check(p, words*8)
	checkAligned(p)
	a.chargeWrite(p, n)
	for i := 0; i < words; i++ {
		var w uint64
		for b := i * 8; b < min((i+1)*8, n); b++ {
			w |= uint64(data[b]) << (uint(b%8) * 8)
		}
		atomic.StoreUint64(a.word(p+Ptr(i*8)), le64(w))
	}
	a.markDirty(p, words*8)
}

// Prefetch hints the CPU to bring the line holding p toward its cache, so
// that a load or store of it soon after does not wait for the medium. It
// is not an access: it counts nothing, charges no emulated latency and
// leaves the cachesim model alone, so Reads and the emulated read charge
// stay what the access that follows pays. A p outside the arena is
// ignored, since a hint may come from a walk that raced a writer.
func (a *Arena) Prefetch(p Ptr) {
	if p >= LabelBase && uint64(p) < uint64(len(a.data)) {
		cpu.Prefetch(unsafe.Pointer(&a.data[p]))
	}
}

// ReadPtr loads a persistent pointer stored at p.
func (a *Arena) ReadPtr(p Ptr) Ptr { return Ptr(a.Read8(p)) }

// WritePtr stores a persistent pointer at p.
func (a *Arena) WritePtr(p Ptr, v Ptr) { a.Write8(p, uint64(v)) }

// Read1 loads one byte at p.
func (a *Arena) Read1(p Ptr) byte {
	a.check(p, 1)
	a.chargeRead(p, 1)
	return a.data[p]
}

// Write1 stores one byte at p.
func (a *Arena) Write1(p Ptr, v byte) {
	a.check(p, 1)
	a.chargeWrite(p, 1)
	a.data[p] = v
	a.markDirty(p, 1)
}

// Persist is the paper's persistent(): it makes [p, p+size) durable,
// charges one PM write penalty, and evicts the flushed lines from the
// simulated cache (CLFLUSH semantics). With crash injection armed, the
// fatal persist panics with CrashError *before* becoming durable, so the
// durable image reflects a failure between this persist and the previous
// one.
func (a *Arena) Persist(p Ptr, size int) {
	a.check(p, size)
	a.persistAt(p, size)
}

// persistAt is Persist without the bounds check; only the arena's own
// header persists (Reserve's cursor update) take this entry directly.
// It times the persist when the obs gate is on (one atomic flag load
// otherwise).
func (a *Arena) persistAt(p Ptr, size int) {
	if a.timing.Enabled() && a.sample.Hit() {
		start := time.Now()
		a.persistNow(p, size)
		a.persistH.Record(time.Since(start).Nanoseconds())
		return
	}
	a.persistNow(p, size)
}

// persistNow applies one persist: crash-injection check, count,
// emulation charge, media flush.
func (a *Arena) persistNow(p Ptr, size int) {
	if a.crashBudget.Load() >= 0 {
		a.takeCrashBudget()
	}
	a.persists.AddStripe(pageStripe(p), 1)
	if a.emu != nil {
		a.emu.persist(p, size)
	}
	a.persistRange(int64(p), int64(size))
}

// takeCrashBudget lets one persist through armed crash injection, or
// panics with CrashError when the budget is spent. Deciding and counting
// are one compare-and-swap, so concurrent persisters can never apply more
// persists than were armed.
func (a *Arena) takeCrashBudget() {
	for {
		b := a.crashBudget.Load()
		switch {
		case b < 0: // disarmed meanwhile
			return
		case b == 0:
			panic(CrashError{Persists: a.Persists(), Site: a.PersistSite()})
		case a.crashBudget.CompareAndSwap(b, b-1):
			return
		}
	}
}

// persistRange flushes lines without charging latency (internal metadata).
func (a *Arena) persistRange(off, size int64) {
	first := off / lineSize
	last := (off + size - 1) / lineSize
	a.persistedLines.AddStripe(pageStripe(Ptr(off)), uint64(last-first+1))
	a.backend.Persist(off, size)
	if !a.tracking {
		return
	}
	a.shadowMu.Lock()
	defer a.shadowMu.Unlock()
	for line := first; line <= last; line++ {
		lo := line * lineSize
		hi := min(lo+lineSize, int64(len(a.data)))
		// Word-wise atomic loads, not a slicecopy: the flush granule is a
		// whole line, so this reads neighbour words inside the line that a
		// concurrent writer may be atomically storing (e.g. WriteWords
		// initialising the adjacent object). Atomic loads make that pairing
		// race-free and untorn, matching ReadWords' contract.
		w := lo
		for ; w+8 <= hi; w += 8 {
			binary.LittleEndian.PutUint64(a.shadow[w:], le64(atomic.LoadUint64(a.word(Ptr(w)))))
		}
		copy(a.shadow[w:hi], a.data[w:hi])
		a.dirty[line/64].And(^uint64(1 << uint(line%64)))
	}
}

// FailAfterPersists arms crash injection: the (n+1)-th subsequent Persist
// panics with CrashError without taking effect, and so does every Persist
// after it until DisarmCrash. n = 0 crashes at the very next persist. The
// count is exact under concurrent persisters. Pass a negative value to
// disarm.
func (a *Arena) FailAfterPersists(n int64) { a.crashBudget.Store(max(n, -1)) }

// DisarmCrash cancels any pending injected crash.
func (a *Arena) DisarmCrash() { a.crashBudget.Store(-1) }

// SetPersistSite labels the persist boundaries executed from here until
// the next SetPersistSite call, so an injected crash can report *which*
// algorithm step it interrupted (CrashError.Site). Call sites pass short
// static strings ("insert.value-bit", "delete.leaf-bit", ...). The label
// is only recorded on Tracking arenas — crash injection requires Tracking
// anyway — so production and benchmark arenas pay a single branch. The
// store lives in a noinline helper: with it inlined here, escape analysis
// heap-allocates the string header at every (inlined) call site even when
// tracking is off, which showed up as most of Put's allocations.
func (a *Arena) SetPersistSite(site string) {
	if a.tracking {
		a.storePersistSite(site)
	}
}

//go:noinline
func (a *Arena) storePersistSite(site string) {
	a.site.Store(&site)
}

// PersistSite returns the current persist-site label ("" if none).
func (a *Arena) PersistSite() string {
	if p := a.site.Load(); p != nil {
		return *p
	}
	return ""
}

// Persists returns the number of completed Persist calls.
func (a *Arena) Persists() int64 { return int64(a.persists.Value()) }

// CrashOptions tune Crash's model of what survives a power failure.
type CrashOptions struct {
	// KeepDirtyProb is the probability that each dirty (written but not
	// persisted) cache line nevertheless reaches the media, modelling
	// spontaneous cache evictions. 0 is the pessimistic (and default)
	// model: nothing unflushed survives.
	KeepDirtyProb float64
	// Rand supplies randomness when KeepDirtyProb > 0.
	Rand *rand.Rand
}

// Crash simulates a power failure and returns a fresh Arena holding only
// the durable image. The original arena must not be used afterwards.
// Requires Tracking.
func (a *Arena) Crash(cfg Config, opts CrashOptions) (*Arena, error) {
	if !a.tracking {
		return nil, ErrNoTracking
	}
	a.shadowMu.Lock()
	img := make([]byte, len(a.shadow))
	copy(img, a.shadow)
	if opts.KeepDirtyProb > 0 && opts.Rand != nil {
		for line := int64(0); line < numLines(int64(len(a.data))); line++ {
			if a.dirty[line/64].Load()&(1<<uint(line%64)) == 0 {
				continue
			}
			if opts.Rand.Float64() < opts.KeepDirtyProb {
				lo := line * lineSize
				hi := min(lo+lineSize, int64(len(a.data)))
				copy(img[lo:hi], a.data[lo:hi])
			}
		}
	}
	a.shadowMu.Unlock()
	cfg.Size = int64(len(img))
	return Attach(img, cfg)
}

// DurableImage returns a copy of the current durable view. Requires
// Tracking. Useful for asserting exactly what would survive a crash now.
func (a *Arena) DurableImage() ([]byte, error) {
	if !a.tracking {
		return nil, ErrNoTracking
	}
	a.shadowMu.Lock()
	defer a.shadowMu.Unlock()
	img := make([]byte, len(a.shadow))
	copy(img, a.shadow)
	return img, nil
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() Stats {
	return Stats{
		Capacity:       int64(len(a.data)),
		Reserved:       a.Reserved(),
		Persists:       a.Persists(),
		PersistedLines: int64(a.persistedLines.Value()),
		Reads:          int64(a.reads.Value()),
		Writes:         int64(a.writes.Value()),
		BytesWritten:   int64(a.bytesWritten.Value()),
		Syncs:          int64(a.syncs.Value()),
	}
}

// EnableTiming turns the Persist/Sync latency histograms on or off
// (core's EnableMetrics flips this together with its own op timing).
func (a *Arena) EnableTiming(on bool) { a.timing.Set(on) }

// TimingSnapshots returns the Persist and Sync latency histograms
// (all-zero until EnableTiming(true) has let them record).
func (a *Arena) TimingSnapshots() (persist, sync obs.HistSnapshot) {
	return a.persistH.Snapshot(), a.syncH.Snapshot()
}
