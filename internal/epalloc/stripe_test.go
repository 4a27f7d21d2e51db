package epalloc

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// TestAllocStripeAffinity checks that AllocStripe serves every stripe from
// that stripe's own chunks: eight allocations on eight stripes land in
// eight distinct chunks, each registered to its stripe.
func TestAllocStripeAffinity(t *testing.T) {
	_, al := newAlloc(t, 4<<20)
	chunks := map[pmem.Ptr]int{}
	for s := 0; s < NumStripes; s++ {
		obj, err := al.AllocStripe(0, s)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := al.StripeOf(obj); err != nil || got != s {
			t.Fatalf("StripeOf = (%d,%v), want stripe %d", got, err, s)
		}
		chunk, err := al.ChunkOf(obj)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := chunks[chunk]; dup {
			t.Fatalf("stripes %d and %d share chunk %d", prev, s, chunk)
		}
		chunks[chunk] = s
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossStripeSteal empties a chunk on one stripe (parking it on that
// stripe's free list) and then allocates on a different, dry stripe: the
// allocator must steal the free chunk across stripes instead of reserving
// fresh arena space, re-registering it to the destination stripe.
func TestCrossStripeSteal(t *testing.T) {
	_, al := newAlloc(t, 4<<20)
	// Fill stripe 2's first chunk so a second chunk appears, then empty
	// the second chunk. The keep-one rule protects only the last linked
	// chunk, so the emptied one is recycled onto stripe 2's free list.
	var first []pmem.Ptr
	for i := 0; i < ObjectsPerChunk; i++ {
		obj, err := al.AllocStripe(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
		first = append(first, obj)
	}
	extra, err := al.AllocStripe(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(extra); err != nil {
		t.Fatal(err)
	}
	stolen, err := al.ChunkOf(extra)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Release(extra); err != nil {
		t.Fatal(err)
	}
	if n := al.FreeChunks(1); n != 1 {
		t.Fatalf("FreeChunks = %d, want 1 (emptied chunk recycled)", n)
	}

	nch := int(al.classes[1].nchunks.Load())
	obj, err := al.AllocStripe(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := al.ChunkOf(obj); err != nil || got != stolen {
		t.Fatalf("ChunkOf = (%d,%v), want stolen chunk %d", got, err, stolen)
	}
	if s, err := al.StripeOf(obj); err != nil || s != 6 {
		t.Fatalf("StripeOf = (%d,%v), want destination stripe 6", s, err)
	}
	if got := int(al.classes[1].nchunks.Load()); got != nch {
		t.Fatalf("nchunks grew %d -> %d: steal reserved fresh space", nch, got)
	}
	if n := al.FreeChunks(1); n != 0 {
		t.Fatalf("FreeChunks = %d after steal, want 0", n)
	}
	if err := al.SetBit(obj); err != nil {
		t.Fatal(err)
	}
	for _, o := range first[:3] { // stripe 2's full chunk is untouched
		if set, _ := al.BitIsSet(o); !set {
			t.Fatalf("slot %d lost its bit across the steal", o)
		}
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedULogClaims checks the lock-free update-log pool partition:
// claims prefer the caller's stripe, spill to siblings when the stripe is
// dry, and Reclaim returns slots to their home partition.
func TestStripedULogClaims(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	var own []*ULog
	for i := 0; i < ulogsPerStripe; i++ {
		u := al.GetUpdateLog(3)
		if got := u.idx / ulogsPerStripe; got != 3 {
			t.Fatalf("claim %d landed in stripe %d's partition, want 3", i, got)
		}
		own = append(own, u)
	}
	// Stripe 3 is dry: the next claim must steal from a sibling partition.
	spill := al.GetUpdateLog(3)
	if got := spill.idx / ulogsPerStripe; got == 3 {
		t.Fatalf("claim beyond the partition stayed on stripe 3 (slot %d)", spill.idx)
	}
	spill.Reclaim()
	for _, u := range own {
		u.Reclaim()
	}
	// All slots home again: a fresh claim gets stripe 3's first slot back.
	u := al.GetUpdateLog(3)
	if got := u.idx / ulogsPerStripe; got != 3 {
		t.Fatalf("post-reclaim claim landed in stripe %d's partition", got)
	}
	u.Reclaim()
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsCrossStripeDuplicate is the regression test for the
// stripe-partition invariant: PM corrupted so one chunk is reachable from
// two stripes' lists must fail both the online fsck and a fresh Attach.
func TestCheckDetectsCrossStripeDuplicate(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	a0, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(a0); err != nil {
		t.Fatal(err)
	}
	chunk0, err := al.ChunkOf(a0)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}

	// Corrupt: point stripe 5's chunk-list head at stripe 0's chunk.
	arena.WritePtr(al.headAddr(0, 5), chunk0)
	arena.Persist(al.headAddr(0, 5), 8)

	err = al.Check()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "reachable twice") {
		t.Fatalf("Check = %v, want ErrCorrupt (reachable twice)", err)
	}

	// The corruption is durable: recovery must refuse to attach.
	img, err := arena.DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	ar2, err := pmem.Attach(img, pmem.Config{Size: int64(len(img))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(ar2, testSpecs()); !errors.Is(err, ErrCorrupt) ||
		!strings.Contains(err.Error(), "reachable twice across stripe lists") {
		t.Fatalf("Attach = %v, want ErrCorrupt (reachable twice across stripe lists)", err)
	}
}

// TestCheckDetectsStripeRegistrationMismatch corrupts the partition the
// other way round: a chunk moved onto a stripe's persistent list without
// its registration following must fail Check.
func TestCheckDetectsStripeRegistrationMismatch(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	a0, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(a0); err != nil {
		t.Fatal(err)
	}
	chunk0, err := al.ChunkOf(a0)
	if err != nil {
		t.Fatal(err)
	}
	// Move the chunk to stripe 3's list on PM only (registration and
	// volatile state still say stripe 0).
	arena.WritePtr(al.headAddr(0, 0), pmem.Nil)
	arena.WritePtr(al.headAddr(0, 3), chunk0)
	err = al.Check()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "registered to stripe") {
		t.Fatalf("Check = %v, want ErrCorrupt (stripe registration mismatch)", err)
	}
}

func mustChunkOf(t *testing.T, al *Allocator, obj pmem.Ptr) pmem.Ptr {
	t.Helper()
	c, err := al.ChunkOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetireHoldsSlotUntilFree checks deferred availability on the
// two-step path: Retire clears the bit durably but the slot is not handed
// out again until Free, which also recycles the chunk it empties.
func TestRetireHoldsSlotUntilFree(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	// Fill stripe 5's first chunk, then put one object in a second chunk.
	for i := 0; i < ObjectsPerChunk; i++ {
		obj, err := al.AllocStripe(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
	}
	lone, err := al.AllocStripe(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(lone); err != nil {
		t.Fatal(err)
	}

	if err := al.Retire(lone); err != nil {
		t.Fatal(err)
	}
	img, err := arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	al2, err := Attach(img, testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if set, _ := al2.BitIsSet(lone); set {
		t.Fatal("Retire's bit clear was not durable")
	}

	if err := al.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent missed the retired, not yet freed slot")
	}
	if n := al.FreeChunks(0); n != 0 {
		t.Fatalf("chunk recycled while its retired slot was still held (FreeChunks = %d)", n)
	}
	other, err := al.AllocStripe(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if other == lone {
		t.Fatal("retired slot handed out before Free")
	}
	if err := al.Free(other); err != nil {
		t.Fatal(err)
	}
	if err := al.Free(lone); err != nil {
		t.Fatal(err)
	}
	if n := al.FreeChunks(0); n != 1 {
		t.Fatalf("FreeChunks = %d after Free emptied the chunk, want 1", n)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathReadsNoPM pins what the header mirror is for: allocating,
// committing, testing, retiring and freeing slots — everything short of
// chunk set-up and recycling — loads nothing from PM.
func TestHotPathReadsNoPM(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	warm, err := al.AllocStripe(1, 1) // links the stripe's first chunk
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(warm); err != nil {
		t.Fatal(err)
	}
	before := arena.Stats().Reads
	for i := 0; i < 3*ObjectsPerChunk; i++ {
		obj, err := al.AllocStripe(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
		if set, err := al.BitIsSet(obj); err != nil || !set {
			t.Fatalf("BitIsSet = (%v, %v)", set, err)
		}
		if i%2 == 0 {
			err = al.Release(obj)
		} else if err = al.Retire(obj); err == nil {
			err = al.Free(obj)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if reads := arena.Stats().Reads - before; reads != 0 {
		t.Fatalf("%d PM reads on the allocator's hot paths, want 0", reads)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDetectsHeaderMirrorDivergence: a PM header changed behind the
// allocator's back — the mirror no longer describes the medium — must
// fail fsck, and the volatile footprint the mirror costs is reported.
func TestCheckDetectsHeaderMirrorDivergence(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	obj, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetBit(obj); err != nil {
		t.Fatal(err)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
	st := al.Stats()[0]
	if want := chunkMetaBytes + int64(unsafe.Sizeof(tablePage{})); st.Chunks != 1 || st.VolatileBytes != want {
		t.Fatalf("Stats: %d chunks, %d volatile bytes; want 1 and %d (one record, one table page)", st.Chunks, st.VolatileBytes, want)
	}
	chunk := mustChunkOf(t, al, obj)
	arena.Write8(chunk, uint64(packHeader(0b111)))
	err = al.Check()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "header mirror") {
		t.Fatalf("Check = %v, want ErrCorrupt (header mirror)", err)
	}
}

// TestCheckDetectsQueuedFreeChunk: a chunk on a free list that is also
// queued for allocation would be handed out twice — slot by slot now, and
// whole when a transfer pops it — so fsck must refuse it, as it must a
// free chunk whose header is not zero.
func TestCheckDetectsQueuedFreeChunk(t *testing.T) {
	arena, al := newAlloc(t, 4<<20)
	var objs []pmem.Ptr
	for i := 0; i < ObjectsPerChunk+1; i++ {
		obj, err := al.AllocStripe(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := al.SetBit(obj); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	lone := objs[ObjectsPerChunk]
	if err := al.Release(lone); err != nil {
		t.Fatal(err)
	}
	if n := al.FreeChunks(0); n != 1 {
		t.Fatalf("FreeChunks = %d, want 1", n)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}

	m, _ := al.lookupChunk(lone)
	ss := &al.classes[0].stripes[4]
	ss.mu.Lock()
	ss.queueAvail(m)
	ss.mu.Unlock()
	err := al.Check()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "queued true") {
		t.Fatalf("Check = %v, want ErrCorrupt (free chunk queued)", err)
	}

	ss.mu.Lock()
	m.inAvail = false
	ss.avail = ss.avail[:len(ss.avail)-1]
	ss.mu.Unlock()
	arena.Write8(m.start, uint64(packHeader(1)))
	err = al.Check()
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "free chunk") {
		t.Fatalf("Check = %v, want ErrCorrupt (free chunk header)", err)
	}
}
