package epalloc

import (
	"errors"
	"testing"

	"github.com/casl-sdsu/hart/internal/pmem"
)

func testSpecs() []ClassSpec {
	return []ClassSpec{
		{Name: "leaf", ObjSize: 40},
		{Name: "value8", ObjSize: 8},
		{Name: "value16", ObjSize: 16},
	}
}

func newAlloc(t *testing.T, size int64) (*pmem.Arena, *Allocator) {
	t.Helper()
	arena, err := pmem.New(pmem.Config{Size: size, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	al, err := New(arena, testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return arena, al
}

func TestNewValidatesSpecs(t *testing.T) {
	arena, _ := pmem.New(pmem.Config{Size: 1 << 20})
	if _, err := New(arena, nil); err == nil {
		t.Fatal("accepted zero classes")
	}
	if _, err := New(arena, make([]ClassSpec, MaxClasses+1)); err == nil {
		t.Fatal("accepted too many classes")
	}
	if _, err := New(arena, []ClassSpec{{Name: "bad", ObjSize: 7}}); err == nil {
		t.Fatal("accepted non-multiple-of-8 size")
	}
}

func TestAllocCommitAndBit(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	obj, err := al.AllocStripe(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	set, err := al.BitIsSet(obj)
	if err != nil || set {
		t.Fatalf("fresh slot bit = %v (err %v), want clear", set, err)
	}
	if err := al.SetBit(obj); err != nil {
		t.Fatal(err)
	}
	if set, _ := al.BitIsSet(obj); !set {
		t.Fatal("bit not set after SetBit")
	}
	if err := al.Release(obj); err != nil {
		t.Fatal(err)
	}
	if set, _ := al.BitIsSet(obj); set {
		t.Fatal("bit still set after Release")
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocDistinctSlots(t *testing.T) {
	_, al := newAlloc(t, 1<<22)
	seen := map[pmem.Ptr]bool{}
	// More than 2 chunks worth, committing every other object.
	for i := 0; i < 3*ObjectsPerChunk; i++ {
		obj, err := al.AllocStripe(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[obj] {
			t.Fatalf("slot %d handed out twice", obj)
		}
		seen[obj] = true
		if i%2 == 0 {
			if err := al.SetBit(obj); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Uncommitted in-flight slots are not reused while in flight; this is
	// why two Allocs without SetBit never collide above.
	n, err := al.CountUsed(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (3*ObjectsPerChunk + 1) / 2; n != want {
		t.Fatalf("CountUsed = %d, want %d", n, want)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeMakesSlotReusable: a slot handed out and never committed goes
// back through Free and is the next one handed out.
func TestFreeMakesSlotReusable(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	a1, _ := al.AllocStripe(0, 0)
	if err := al.Free(a1); err != nil {
		t.Fatal(err)
	}
	a2, _ := al.AllocStripe(0, 0)
	if a1 != a2 {
		t.Fatalf("freed slot not reused: %d then %d", a1, a2)
	}
	if err := al.CheckQuiescent(); err == nil {
		t.Fatal("CheckQuiescent missed the slot in flight again")
	}
	if err := al.Free(a2); err != nil {
		t.Fatal(err)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkOfAndClassOf(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	obj, _ := al.AllocStripe(2, 0)
	chunk, err := al.ChunkOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	if obj < chunk+chunkDataOff {
		t.Fatalf("object %d before its chunk data %d", obj, chunk)
	}
	c, err := al.ClassOf(obj)
	if err != nil || c != 2 {
		t.Fatalf("ClassOf = %v (%v), want 2", c, err)
	}
	if _, err := al.ChunkOf(pmem.Ptr(17)); !errors.Is(err, ErrNotChunkObject) {
		t.Fatalf("ChunkOf on wild pointer: %v", err)
	}
}

func TestNextFreeHintConsistency(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	var objs []pmem.Ptr
	for i := 0; i < ObjectsPerChunk; i++ {
		obj, _ := al.AllocStripe(1, 0)
		al.SetBit(obj)
		objs = append(objs, obj)
	}
	chunk, _ := al.ChunkOf(objs[0])
	if h := al.readHeader(chunk); h.fullIndicator() != fullFull {
		t.Fatalf("full chunk indicator = %d, want %d", h.fullIndicator(), fullFull)
	}
	// Free slot 17: indicator returns to available and the hint points at it.
	al.Release(objs[17])
	h := al.readHeader(chunk)
	if h.fullIndicator() != fullAvailable || h.nextFree() != 17 {
		t.Fatalf("after free: indicator=%d hint=%d, want %d/17", h.fullIndicator(), h.nextFree(), fullAvailable)
	}
	// Next alloc takes the hinted slot.
	obj, _ := al.AllocStripe(1, 0)
	if obj != objs[17] {
		t.Fatalf("hinted alloc = %d, want %d", obj, objs[17])
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRecycleAndFreeListReuse(t *testing.T) {
	_, al := newAlloc(t, 1<<22)
	// Fill two chunks.
	var objs []pmem.Ptr
	for i := 0; i < 2*ObjectsPerChunk; i++ {
		obj, _ := al.AllocStripe(0, 0)
		al.SetBit(obj)
		objs = append(objs, obj)
	}
	chunk0, _ := al.ChunkOf(objs[0])
	// Empty the first-filled chunk: the last Release recycles it.
	for _, o := range objs {
		if c, _ := al.ChunkOf(o); c == chunk0 {
			if err := al.Release(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if al.FreeChunks(0) != 1 {
		t.Fatalf("FreeChunks = %d, want 1", al.FreeChunks(0))
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
	reservedBefore := al.Arena().Reserved()
	// Filling a chunk's worth again must reuse the recycled chunk, not
	// reserve new space.
	for i := 0; i < ObjectsPerChunk; i++ {
		obj, err := al.AllocStripe(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		al.SetBit(obj)
	}
	if al.Arena().Reserved() != reservedBefore {
		t.Fatal("recycled chunk not reused; arena grew")
	}
	if al.FreeChunks(0) != 0 {
		t.Fatalf("FreeChunks = %d after reuse, want 0", al.FreeChunks(0))
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleSkipsNonEmptyChunk: a Release that leaves a used or
// in-flight slot in its chunk recycles nothing, whether the chunk is the
// older one or the list's head.
func TestRecycleSkipsNonEmptyChunk(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	var objs []pmem.Ptr
	for i := 0; i < ObjectsPerChunk+2; i++ {
		obj, _ := al.AllocStripe(0, 0)
		al.SetBit(obj)
		objs = append(objs, obj)
	}
	held, _ := al.AllocStripe(0, 0) // in flight in the head chunk
	for _, o := range []pmem.Ptr{objs[0], objs[ObjectsPerChunk], objs[ObjectsPerChunk+1]} {
		if err := al.Release(o); err != nil {
			t.Fatal(err)
		}
	}
	if n := al.FreeChunks(0); n != 0 {
		t.Fatalf("FreeChunks = %d, want 0: a non-empty chunk was recycled", n)
	}
	if n, _ := al.CountUsed(0); n != ObjectsPerChunk-1 {
		t.Fatalf("CountUsed = %d, want %d", n, ObjectsPerChunk-1)
	}
	if err := al.Free(held); err != nil {
		t.Fatal(err)
	}
	if n := al.FreeChunks(0); n != 1 {
		t.Fatalf("FreeChunks = %d after Free emptied the head chunk, want 1", n)
	}
	if err := al.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestRecycleKeepsLastChunk(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	obj, _ := al.AllocStripe(0, 0)
	al.SetBit(obj)
	if err := al.Release(obj); err != nil {
		t.Fatal(err)
	}
	// The sole chunk stays linked to avoid thrash.
	if al.head(0, 0).IsNil() {
		t.Fatal("sole chunk was recycled")
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestIterateObjects(t *testing.T) {
	_, al := newAlloc(t, 1<<22)
	want := map[pmem.Ptr]bool{}
	for i := 0; i < ObjectsPerChunk+10; i++ {
		obj, _ := al.AllocStripe(0, 0)
		if i%3 != 0 {
			al.SetBit(obj)
			want[obj] = true
		}
	}
	got := map[pmem.Ptr]bool{}
	err := al.IterateObjects(0, func(obj pmem.Ptr, used bool) bool {
		if used {
			got[obj] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d used objects, want %d", len(got), len(want))
	}
	for o := range want {
		if !got[o] {
			t.Fatalf("object %d missing from iteration", o)
		}
	}
}

func TestAttachRebuildsState(t *testing.T) {
	arena, al := newAlloc(t, 1<<22)
	var live []pmem.Ptr
	for i := 0; i < ObjectsPerChunk+20; i++ {
		obj, _ := al.AllocStripe(0, 0)
		al.SetBit(obj)
		live = append(live, obj)
	}
	// Free a few and leave some in flight (in-flight must vanish on crash).
	al.Release(live[3])
	al.Release(live[5])
	al.AllocStripe(0, 0) // in-flight, never committed
	crashed, err := arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	al2, err := Attach(crashed, testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if err := al2.Check(); err != nil {
		t.Fatal(err)
	}
	n, _ := al2.CountUsed(0)
	if want := len(live) - 2; n != want {
		t.Fatalf("used after attach = %d, want %d", n, want)
	}
	// Freed and in-flight slots are allocatable again.
	seen := map[pmem.Ptr]bool{}
	for i := 0; i < 3; i++ {
		obj, err := al2.AllocStripe(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[obj] {
			t.Fatal("duplicate slot after attach")
		}
		seen[obj] = true
		al2.SetBit(obj)
	}
	if err := al2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachWrongSpecsRejected(t *testing.T) {
	arena, _ := newAlloc(t, 1<<20)
	img, _ := arena.DurableImage()
	_ = img
	if _, err := Attach(arena, testSpecs()[:2]); err == nil {
		t.Fatal("Attach accepted wrong class count")
	}
	bad := testSpecs()
	bad[1].ObjSize = 24
	if _, err := Attach(arena, bad); err == nil {
		t.Fatal("Attach accepted wrong class size")
	}
}

func TestUpdateLogRoundTrip(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	u := al.GetUpdateLog(0)
	u.Commit(100, 200, 300, 5)
	pend := al.PendingUpdateLogs()
	if len(pend) != 1 || pend[0].PLeaf != 100 || pend[0].POldV != 200 || pend[0].NewWord != 300 || pend[0].Shape != 5 || !pend[0].Complete {
		t.Fatalf("pending logs = %+v", pend)
	}
	u.Reclaim()
	if len(al.PendingUpdateLogs()) != 0 {
		t.Fatal("log still pending after Reclaim")
	}
}

// TestUpdateLogZeroWordIsARecord: the new word is payload — an inline value
// of zero bytes makes it 0 — so what tells a record from a slot caught
// mid-clear is the meta word, which a clear zeroes first.
func TestUpdateLogZeroWordIsARecord(t *testing.T) {
	arena, al := newAlloc(t, 1<<20)
	u := al.GetUpdateLog(0)
	u.Commit(100, pmem.Nil, 0, 8)
	pend := al.PendingUpdateLogs()
	if len(pend) != 1 || !pend[0].Complete || pend[0].NewWord != 0 || pend[0].Shape != 8 {
		t.Fatalf("pending logs = %+v, want one complete record of a zero word", pend)
	}
	// A Reclaim torn after its first store: still armed, nothing to redo.
	arena.Write8(u.base+ulogMetaOff, 0)
	if pend = al.PendingUpdateLogs(); len(pend) != 1 || pend[0].Complete {
		t.Fatalf("pending logs = %+v, want one armed slot with no record", pend)
	}
	u.Reclaim()
	if len(al.PendingUpdateLogs()) != 0 {
		t.Fatal("log still pending after Reclaim")
	}
}

func TestUpdateLogPoolExhaustionBlocksAndRecovers(t *testing.T) {
	_, al := newAlloc(t, 1<<20)
	logs := make([]*ULog, NumUpdateLogs)
	for i := range logs {
		logs[i] = al.GetUpdateLog(0)
	}
	done := make(chan *ULog)
	go func() { done <- al.GetUpdateLog(0) }()
	select {
	case <-done:
		t.Fatal("GetUpdateLog returned with pool exhausted")
	default:
	}
	logs[7].Reclaim()
	u := <-done
	if u == nil {
		t.Fatal("blocked GetUpdateLog returned nil")
	}
}

func TestUpdateLogSurvivesCrash(t *testing.T) {
	arena, al := newAlloc(t, 1<<20)
	u := al.GetUpdateLog(0)
	u.Commit(111, 222, 333, 5)
	crashed, err := arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	al2, err := Attach(crashed, testSpecs())
	if err != nil {
		t.Fatal(err)
	}
	pend := al2.PendingUpdateLogs()
	if len(pend) != 1 || pend[0].PLeaf != 111 || pend[0].POldV != 222 || pend[0].NewWord != 333 || pend[0].Shape != 5 || !pend[0].Complete {
		t.Fatalf("pending after crash = %+v", pend)
	}
	al2.ResetUpdateLogAt(pend[0].Index)
	if len(al2.PendingUpdateLogs()) != 0 {
		t.Fatal("log survived reset")
	}
}

// TestCrashDuringRecycleEveryPersist drives the Release that empties a
// chunk — its bit clear, then the recycle — into a crash at every persist
// boundary and verifies the allocator recovers to a consistent state with
// the chunk either still linked or on the free list — never lost, never on
// both lists.
func TestCrashDuringRecycleEveryPersist(t *testing.T) {
	for fail := int64(0); ; fail++ {
		arena, al := newAlloc(t, 1<<22)
		// Two chunks; empty the older one so it is recyclable.
		var objs []pmem.Ptr
		for i := 0; i < 2*ObjectsPerChunk; i++ {
			obj, _ := al.AllocStripe(0, 0)
			al.SetBit(obj)
			objs = append(objs, obj)
		}
		victim, _ := al.ChunkOf(objs[0])
		for _, o := range objs[1:] {
			if c, _ := al.ChunkOf(o); c == victim {
				al.Release(o)
			}
		}
		arena.FailAfterPersists(fail)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			if err := al.Release(objs[0]); err != nil {
				t.Fatal(err)
			}
		}()
		arena.DisarmCrash()
		if !crashed {
			// Release completed without reaching the crash point: the
			// protocol has fewer persists than `fail`. Done.
			if fail < 2 {
				t.Fatal("release recycled nothing")
			}
			return
		}
		img, err := arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		al2, err := Attach(img, testSpecs())
		if err != nil {
			t.Fatalf("fail=%d: Attach: %v", fail, err)
		}
		if err := al2.Check(); err != nil {
			t.Fatalf("fail=%d: Check: %v", fail, err)
		}
		// The surviving chunk's objects must all still be live, and so
		// must the released one if the crash beat its bit clear.
		want := ObjectsPerChunk
		if fail == 0 {
			want++
		}
		if n, _ := al2.CountUsed(0); n != want {
			t.Fatalf("fail=%d: used = %d, want %d", fail, n, want)
		}
		// The victim chunk must be fully accounted: linked or free on
		// exactly one stripe.
		onList := 0
		for s := 0; s < NumStripes; s++ {
			for p := al2.head(0, s); !p.IsNil(); p = al2.arena.ReadPtr(p + 8) {
				if p == victim {
					onList++
				}
			}
			for p := al2.freeHead(0, s); !p.IsNil(); p = al2.arena.ReadPtr(p + 8) {
				if p == victim {
					onList++
				}
			}
		}
		if onList != 1 {
			t.Fatalf("fail=%d: victim chunk appears %d times across lists, want 1", fail, onList)
		}
	}
}

// TestCrashDuringChunkAllocEveryPersist crashes at every persist boundary
// of a chunk allocation (fresh reservation path) and verifies no chunk is
// leaked or double-linked.
func TestCrashDuringChunkAllocEveryPersist(t *testing.T) {
	for fail := int64(0); ; fail++ {
		arena, al := newAlloc(t, 1<<22)
		// Fill the first chunk completely so the next alloc must create a
		// second chunk.
		for i := 0; i < ObjectsPerChunk; i++ {
			obj, _ := al.AllocStripe(0, 0)
			al.SetBit(obj)
		}
		arena.FailAfterPersists(fail)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			obj, err := al.AllocStripe(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			al.SetBit(obj)
		}()
		arena.DisarmCrash()
		if !crashed {
			if fail == 0 {
				t.Fatal("chunk alloc performed zero persists")
			}
			return
		}
		img, err := arena.Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
		if err != nil {
			t.Fatal(err)
		}
		al2, err := Attach(img, testSpecs())
		if err != nil {
			t.Fatalf("fail=%d: Attach: %v", fail, err)
		}
		if err := al2.Check(); err != nil {
			t.Fatalf("fail=%d: Check: %v", fail, err)
		}
		// No object may be lost; the interrupted object was never
		// committed so exactly ObjectsPerChunk survive.
		if n, _ := al2.CountUsed(0); n != ObjectsPerChunk {
			t.Fatalf("fail=%d: used = %d, want %d", fail, n, ObjectsPerChunk)
		}
		// No leak: every reserved byte beyond the superblock belongs to a
		// reachable chunk (chunk list or free list).
		assertNoChunkLeak(t, al2, fail)
		// And the allocator still works.
		obj, err := al2.AllocStripe(0, 0)
		if err != nil {
			t.Fatalf("fail=%d: post-recovery alloc: %v", fail, err)
		}
		if err := al2.SetBit(obj); err != nil {
			t.Fatal(err)
		}
	}
}

// assertNoChunkLeak verifies that the arena's reserved space is exactly
// covered by the superblock plus all reachable chunks of all classes.
func assertNoChunkLeak(t *testing.T, al *Allocator, fail int64) {
	t.Helper()
	covered := int64(pmem.HeaderSize) + sbSize
	for i := range al.classes {
		c := Class(i)
		size := chunkSize(al.classes[i].spec.ObjSize)
		for s := 0; s < NumStripes; s++ {
			for p := al.head(c, s); !p.IsNil(); p = al.arena.ReadPtr(p + 8) {
				covered += size
			}
			for p := al.freeHead(c, s); !p.IsNil(); p = al.arena.ReadPtr(p + 8) {
				covered += size
			}
		}
	}
	// Reservations are 8-aligned; allow alignment slack of < 8 per chunk.
	reserved := al.arena.Reserved()
	if reserved-covered >= 8 {
		t.Fatalf("fail=%d: %d reserved bytes unaccounted (reserved %d, covered %d): leak",
			fail, reserved-covered, reserved, covered)
	}
}
