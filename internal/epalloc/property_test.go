package epalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// TestQuickHeaderPacking: header pack/unpack round-trips for all field
// combinations, and packHeader derives a consistent hint/indicator.
func TestQuickHeaderPacking(t *testing.T) {
	f := func(bitmap uint64, nextFree uint8, full uint8) bool {
		bm := bitmap & bitmapMask
		nf := int(nextFree) & 0x3f
		fi := int(full) & 0x3
		h := makeHeader(bm, nf, fi)
		return h.bitmap() == bm && h.nextFree() == nf && h.fullIndicator() == fi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}

	g := func(bitmap uint64) bool {
		bm := bitmap & bitmapMask
		h := packHeader(bm)
		if h.bitmap() != bm {
			return false
		}
		if bm == bitmapMask {
			return h.fullIndicator() == fullFull
		}
		// The hint must point at a genuinely free slot.
		return h.fullIndicator() == fullAvailable && bm&(1<<uint(h.nextFree())) == 0
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFreeCount: header.free agrees with a naive popcount.
func TestQuickFreeCount(t *testing.T) {
	f := func(bitmap uint64) bool {
		bm := bitmap & bitmapMask
		naive := 0
		for i := 0; i < ObjectsPerChunk; i++ {
			if bm&(1<<uint(i)) == 0 {
				naive++
			}
		}
		return makeHeader(bm, 0, 0).free() == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAllocFreeSequences runs random alloc/commit/free/recycle
// sequences against a reference model of slot states and validates the
// allocator's view (bit states, used counts, fsck) after every batch.
func TestQuickAllocFreeSequences(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		_, al := newAlloc(t, 1<<22)
		type state int
		const (
			free state = iota
			inflight
			committed
		)
		slots := map[pmem.Ptr]state{}
		var inflightList, committedList []pmem.Ptr
		for step := 0; step < 3000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // alloc
				obj, err := al.AllocStripe(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if slots[obj] != free {
					t.Fatalf("seed %d step %d: alloc returned non-free slot %d (state %d)",
						seed, step, obj, slots[obj])
				}
				slots[obj] = inflight
				inflightList = append(inflightList, obj)
			case 4, 5, 6: // commit an in-flight slot
				if len(inflightList) == 0 {
					continue
				}
				i := rng.Intn(len(inflightList))
				obj := inflightList[i]
				if err := al.SetBit(obj); err != nil {
					t.Fatal(err)
				}
				slots[obj] = committed
				committedList = append(committedList, obj)
				inflightList = append(inflightList[:i], inflightList[i+1:]...)
			case 7, 8: // release a committed slot
				if len(committedList) == 0 {
					continue
				}
				i := rng.Intn(len(committedList))
				obj := committedList[i]
				if err := al.Release(obj); err != nil {
					t.Fatal(err)
				}
				slots[obj] = free
				committedList = append(committedList[:i], committedList[i+1:]...)
			default: // hand back an in-flight slot
				if len(inflightList) == 0 {
					continue
				}
				i := rng.Intn(len(inflightList))
				obj := inflightList[i]
				if err := al.Free(obj); err != nil {
					t.Fatal(err)
				}
				slots[obj] = free
				inflightList = append(inflightList[:i], inflightList[i+1:]...)
			}
			if step%500 == 0 {
				if err := al.Check(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		// Final validation: persistent bits match the model exactly.
		for obj, st := range slots {
			set, err := al.BitIsSet(obj)
			if err != nil {
				t.Fatalf("seed %d: BitIsSet(%d): %v", seed, obj, err)
			}
			if want := st == committed; set != want {
				t.Fatalf("seed %d: slot %d bit=%v, model state %d", seed, obj, set, st)
			}
		}
		n, err := al.CountUsed(0)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(committedList) {
			t.Fatalf("seed %d: CountUsed = %d, model %d", seed, n, len(committedList))
		}
		if err := al.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReleaseRecyclesEmptiedChunk: the Release that empties a chunk
// pushes it onto the free list.
func TestReleaseRecyclesEmptiedChunk(t *testing.T) {
	_, al := newAlloc(t, 1<<22)
	var objs []pmem.Ptr
	for i := 0; i < 2*ObjectsPerChunk; i++ {
		obj, _ := al.AllocStripe(0, 0)
		al.SetBit(obj)
		objs = append(objs, obj)
	}
	victim, _ := al.ChunkOf(objs[0])
	for _, o := range objs {
		if c, _ := al.ChunkOf(o); c == victim {
			if err := al.Release(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if al.FreeChunks(0) != 1 {
		t.Fatalf("FreeChunks = %d after Release emptied a chunk, want 1", al.FreeChunks(0))
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestULogCommitOnePersistOneLine pins the cost of the micro-log's two
// writes: Commit makes the whole record durable with one persist, Reclaim
// disarms it with one, and — the slots being 32 bytes at a 32-byte-aligned
// base — neither ever flushes a second cache line, for any slot of the
// pool.
func TestULogCommitOnePersistOneLine(t *testing.T) {
	arena, al := newAlloc(t, 1<<20)
	for i := 0; i < NumUpdateLogs; i++ {
		u := al.GetUpdateLog(0)
		if u.base%ULogSlotSize != 0 {
			t.Fatalf("slot %d at %d is not %d-byte aligned", u.idx, u.base, ULogSlotSize)
		}
		before := arena.Stats()
		u.Commit(123, 456, 789, 5)
		mid := arena.Stats()
		if p, l := mid.Persists-before.Persists, mid.PersistedLines-before.PersistedLines; p != 1 || l != 1 {
			t.Fatalf("slot %d: Commit issued %d persists over %d lines, want 1 over 1", u.idx, p, l)
		}
		pend := al.PendingUpdateLogs()
		if len(pend) != 1 || pend[0].PLeaf != 123 || pend[0].POldV != 456 || pend[0].NewWord != 789 || pend[0].Shape != 5 || !pend[0].Complete {
			t.Fatalf("pending after Commit = %+v", pend)
		}
		u.Reclaim()
		after := arena.Stats()
		if p, l := after.Persists-mid.Persists, after.PersistedLines-mid.PersistedLines; p != 1 || l != 1 {
			t.Fatalf("slot %d: Reclaim issued %d persists over %d lines, want 1 over 1", u.idx, p, l)
		}
		// Keep the slot busy so the next claim moves on to the next one.
		al.ulogs.busy[u.idx/ulogsPerStripe].Or(1 << uint(u.idx%ulogsPerStripe))
	}
}
