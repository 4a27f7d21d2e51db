package epalloc

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// reattach attaches a fresh allocator to a copy of the arena's durable
// image, as a restart would.
func reattach(t *testing.T, arena *pmem.Arena) (*Allocator, error) {
	t.Helper()
	img, err := arena.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	ar2, err := pmem.Attach(img, pmem.Config{Size: int64(len(img))})
	if err != nil {
		t.Fatal(err)
	}
	return Attach(ar2, testSpecs())
}

// TestAttachRefusesWildChunkPointers: a chunk-list or free-list pointer in
// the image that cannot name a chunk — inside the allocator superblock,
// past the reservation or the arena, not 8-aligned, or over a chunk
// already met — makes Attach return ErrCorrupt, whether it is a list head,
// a chunk's PNext word or a word of an armed recycle or transfer log,
// instead of following it into a panic.
func TestAttachRefusesWildChunkPointers(t *testing.T) {
	cases := []struct {
		name string
		// wild picks the pointer from the allocator, its one chunk and a
		// raw reservation after it that no list names.
		wild func(al *Allocator, chunk, raw pmem.Ptr) pmem.Ptr
	}{
		{"inside the superblock", func(al *Allocator, _, _ pmem.Ptr) pmem.Ptr { return al.sb + 64 }},
		{"past Reserved", func(al *Allocator, _, _ pmem.Ptr) pmem.Ptr { return pmem.Ptr(al.arena.Reserved()) }},
		{"past the arena", func(al *Allocator, _, _ pmem.Ptr) pmem.Ptr { return pmem.Ptr(al.arena.Capacity() + 4096) }},
		{"not 8-aligned", func(_ *Allocator, _, raw pmem.Ptr) pmem.Ptr { return raw + 4 }},
		{"over a filed chunk", func(_ *Allocator, chunk, _ pmem.Ptr) pmem.Ptr { return chunk + 64 }},
	}
	sites := []struct {
		name string
		addr func(al *Allocator, chunk pmem.Ptr) pmem.Ptr
		// arm, for a word of stripe 0's logs, writes the log's other words
		// (class 0, the chunk's, is the zero word) so the log is armed and
		// Attach's replay follows the wild word.
		arm func(arena *pmem.Arena, al *Allocator, chunk pmem.Ptr)
	}{
		{"chunk-list head", func(al *Allocator, _ pmem.Ptr) pmem.Ptr { return al.headAddr(1, 3) }, nil},
		{"free-list head", func(al *Allocator, _ pmem.Ptr) pmem.Ptr { return al.freeHeadAddr(1, 3) }, nil},
		{"PNext", func(_ *Allocator, chunk pmem.Ptr) pmem.Ptr { return chunk + 8 }, nil},
		{"recycle-log chunk", func(al *Allocator, _ pmem.Ptr) pmem.Ptr { return al.rlogAddr(0) + rlCurOff },
			func(arena *pmem.Arena, al *Allocator, _ pmem.Ptr) {
				arena.WritePtr(al.rlogAddr(0)+rlPrevOff, al.headAddr(0, 0))
				arena.Persist(al.rlogAddr(0)+rlPrevOff, 8)
			}},
		{"recycle-log link", func(al *Allocator, _ pmem.Ptr) pmem.Ptr { return al.rlogAddr(0) + rlPrevOff },
			func(arena *pmem.Arena, al *Allocator, chunk pmem.Ptr) {
				arena.WritePtr(al.rlogAddr(0)+rlCurOff, chunk)
				arena.Persist(al.rlogAddr(0)+rlCurOff, 8)
			}},
		{"transfer-log chunk", func(al *Allocator, _ pmem.Ptr) pmem.Ptr { return al.tlogAddr(0) + tlChunkOff },
			func(arena *pmem.Arena, al *Allocator, _ pmem.Ptr) {
				arena.Write8(al.tlogAddr(0)+tlSrcOff, 1) // a free-list pop from stripe 1
				arena.Persist(al.tlogAddr(0)+tlSrcOff, 8)
			}},
	}
	for _, tc := range cases {
		for _, site := range sites {
			t.Run(tc.name+"/"+site.name, func(t *testing.T) {
				arena, al := newAlloc(t, 1<<20)
				obj, err := al.AllocStripe(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := al.SetBit(obj); err != nil {
					t.Fatal(err)
				}
				chunk := mustChunkOf(t, al, obj)
				raw, err := arena.Reserve(4096, 8)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := reattach(t, arena); err != nil {
					t.Fatalf("intact image: Attach = %v", err)
				}
				if site.arm != nil {
					site.arm(arena, al, chunk)
				}
				at := site.addr(al, chunk)
				arena.WritePtr(at, tc.wild(al, chunk, raw))
				arena.Persist(at, 8)
				if _, err := reattach(t, arena); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Attach = %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// TestRuntimeReadsNoPM pins what the DRAM links and heads are for: after
// Attach, allocation, commit, bit tests, both doors out, chunk recycles,
// free-list reuse, a cross-stripe steal and a fresh reservation load
// nothing from PM.
func TestRuntimeReadsNoPM(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	for i := 0; i < ObjectsPerChunk+3; i++ { // a full chunk and a partial one
		obj, err := al.AllocStripe(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
	}
	al, err := reattach(t, arena)
	if err != nil {
		t.Fatal(err)
	}
	ar, m := al.Arena(), al.Metrics()
	recycles, reuses, steals, fresh := m.Recycles.Value(), m.ChunkReuses.Value(), m.Steals.Value(), m.FreshChunks.Value()
	before := ar.Stats().Reads

	alloc := func(stripe, n int) []pmem.Ptr {
		var objs []pmem.Ptr
		for i := 0; i < n; i++ {
			obj, err := al.AllocStripe(0, stripe)
			if err != nil {
				t.Fatal(err)
			}
			if err := al.SetBit(obj); err != nil {
				t.Fatal(err)
			}
			if set, err := al.BitIsSet(obj); err != nil || !set {
				t.Fatalf("BitIsSet = (%v, %v)", set, err)
			}
			objs = append(objs, obj)
		}
		return objs
	}
	// Every object given back, by either door: the chunks they empty are
	// recycled onto stripe 2's free list.
	for i, obj := range alloc(2, 3*ObjectsPerChunk) {
		var err error
		if i%2 == 0 {
			err = al.Release(obj)
		} else if err = al.Retire(obj); err == nil {
			err = al.Free(obj)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Stripe 5 has no chunk: it steals stripe 2's free chunks, then
	// reserves fresh ones. Emptying its newest chunk and allocating again
	// reuses it from stripe 5's own free list.
	dry := alloc(5, 5*ObjectsPerChunk)
	for _, obj := range dry[4*ObjectsPerChunk:] {
		if err := al.Release(obj); err != nil {
			t.Fatal(err)
		}
	}
	alloc(5, 2*ObjectsPerChunk)

	if reads := ar.Stats().Reads - before; reads != 0 {
		t.Fatalf("%d PM reads after Attach, want 0", reads)
	}
	for _, c := range []struct {
		name        string
		before, now uint64
	}{
		{"recycles", recycles, m.Recycles.Value()},
		{"own free-list reuses", reuses, m.ChunkReuses.Value()},
		{"steals", steals, m.Steals.Value()},
		{"fresh reservations", fresh, m.FreshChunks.Value()},
	} {
		if c.now == c.before {
			t.Errorf("the churn made no %s", c.name)
		}
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsLinkMirrorDivergence: a DRAM list link or head edited
// out of step with its PM word must fail fsck, as a header mirror does.
func TestCheckDetectsLinkMirrorDivergence(t *testing.T) {
	_, al := newAlloc(t, 4<<20)
	for i := 0; i < 2*ObjectsPerChunk+1; i++ { // three chunks on stripe 6
		obj, err := al.AllocStripe(0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
	ss := &al.classes[0].stripes[6]
	head := ss.head
	mid, tail := head.next, head.next.next
	for _, tc := range []struct {
		name, want string
		edit       func()
	}{
		{"next", "DRAM links", func() { head.next = tail }},
		{"prev", "DRAM links", func() { tail.prev = head }},
		{"head", "DRAM heads", func() { ss.head = mid }},
		{"free head", "DRAM heads", func() { ss.freeHead.Store(tail) }},
	} {
		ss.mu.Lock()
		tc.edit()
		ss.mu.Unlock()
		err := al.Check()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s edited: Check = %v, want ErrCorrupt (%s)", tc.name, err, tc.want)
		}
		ss.mu.Lock()
		head.next, mid.prev, tail.prev, ss.head = mid, head, mid, head
		ss.freeHead.Store(nil)
		ss.mu.Unlock()
		if err := al.Check(); err != nil {
			t.Fatalf("after restoring %s: %v", tc.name, err)
		}
	}
}

// TestLookupBesideTableGrowth runs lock-free ChunkOf and BitIsSet readers
// beside a writer whose fresh reservations grow the chunk table across
// page boundaries: a reader sees each committed object in its chunk with
// its bit set, and an address past the filed chunks as no object, never a
// wrong chunk. Run under -race, it checks that a page and its entries
// reach a reader only through their atomic publication.
func TestLookupBesideTableGrowth(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	size := pmem.Ptr(chunkSize(al.classes[0].spec.ObjSize))
	const pages = 3
	var latest atomic.Uint64 // the last committed object
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				if obj := pmem.Ptr(latest.Load()); !obj.IsNil() {
					chunk, err := al.ChunkOf(obj)
					if err != nil || obj < chunk+chunkDataOff || obj >= chunk+size {
						t.Errorf("ChunkOf(%d) = (%d, %v)", obj, chunk, err)
						return
					}
					if set, err := al.BitIsSet(obj); err != nil || !set {
						t.Errorf("BitIsSet(%d) = (%v, %v) for a committed object", obj, set, err)
						return
					}
				}
				// An address at or just past the reservation's end, where
				// the writer is filing chunks and making pages.
				probe := pmem.Ptr(arena.Reserved()) + pmem.Ptr(rng.Intn(2*int(size)))&^7
				if chunk, err := al.ChunkOf(probe); err == nil && (probe < chunk+chunkDataOff || probe >= chunk+size) {
					t.Errorf("ChunkOf(%d) = chunk %d, which does not hold it", probe, chunk)
					return
				}
			}
		}(int64(r))
	}
	for al.classes[0].tableBytes.Load() < pages*int64(unsafe.Sizeof(tablePage{})) {
		obj, err := al.AllocStripe(0, 1)
		if err == nil {
			err = al.SetBit(obj)
		}
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		latest.Store(uint64(obj))
	}
	done.Store(true)
	wg.Wait()
	t.Logf("%d chunks filed in %d table pages", al.classes[0].nchunks.Load(),
		al.classes[0].tableBytes.Load()/int64(unsafe.Sizeof(tablePage{})))
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
