package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/hashdir"
	"github.com/casl-sdsu/hart/internal/pmem"
)

func newHART(t *testing.T) *HART {
	t.Helper()
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// mixedValue formats the i-th value of a generated workload so that the
// workload meets both value shapes: two in three fit the leaf, the third
// is long enough to need a value object.
func mixedValue(format string, i int) string {
	v := fmt.Sprintf(format, i)
	if i%3 == 0 {
		v += "-wide"
	}
	return v
}

func mustPut(t *testing.T, h *HART, k, v string) {
	t.Helper()
	if err := h.Put([]byte(k), []byte(v)); err != nil {
		t.Fatalf("Put(%q,%q): %v", k, v, err)
	}
}

func mustGet(t *testing.T, h *HART, k, want string) {
	t.Helper()
	got, ok := h.Get([]byte(k))
	if !ok || string(got) != want {
		t.Fatalf("Get(%q) = (%q,%v), want (%q,true)", k, got, ok, want)
	}
}

func TestPutGetBasic(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "hello", "world")
	mustGet(t, h, "hello", "world")
	if _, ok := h.Get([]byte("absent")); ok {
		t.Fatal("Get on absent key succeeded")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutValidation(t *testing.T) {
	h := newHART(t)
	if err := h.Put(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := h.Put(bytes.Repeat([]byte("k"), 25), []byte("v")); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key: %v", err)
	}
	if err := h.Put([]byte("k"), nil); !errors.Is(err, ErrEmptyValue) {
		t.Fatalf("empty value: %v", err)
	}
	if err := h.Put([]byte("k"), bytes.Repeat([]byte("v"), 17)); !errors.Is(err, ErrValueTooLong) {
		t.Fatalf("long value: %v", err)
	}
	// Boundary sizes succeed.
	if err := h.Put(bytes.Repeat([]byte("k"), 24), bytes.Repeat([]byte("v"), 16)); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestShortKeysAndHashBoundary(t *testing.T) {
	// Keys at, below and above kh = 2 land correctly.
	h := newHART(t)
	keys := []string{"a", "ab", "abc", "b", "bc", "abcdefghij", "aa", "aaa"}
	for i, k := range keys {
		mustPut(t, h, k, fmt.Sprintf("v%d", i))
	}
	for i, k := range keys {
		mustGet(t, h, k, fmt.Sprintf("v%d", i))
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "key", "old")
	mustPut(t, h, "key", "new")
	mustGet(t, h, "key", "new")
	if h.Len() != 1 {
		t.Fatalf("Len = %d after in-place put, want 1", h.Len())
	}
	// Cross shapes: out of the leaf into a value object and back.
	mustPut(t, h, "key", "0123456789abcdef")
	mustGet(t, h, "key", "0123456789abcdef")
	mustPut(t, h, "key", "x")
	mustGet(t, h, "key", "x")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRequiresExistingKey(t *testing.T) {
	h := newHART(t)
	if err := h.Update([]byte("nope"), []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update missing = %v, want ErrNotFound", err)
	}
	mustPut(t, h, "yes", "1")
	if err := h.Update([]byte("yes"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	mustGet(t, h, "yes", "2")
}

func TestDelete(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 100; i++ {
		mustPut(t, h, fmt.Sprintf("key%03d", i), fmt.Sprintf("val%d", i))
	}
	for i := 0; i < 100; i += 2 {
		if err := h.Delete([]byte(fmt.Sprintf("key%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 50 {
		t.Fatalf("Len = %d, want 50", h.Len())
	}
	for i := 0; i < 100; i++ {
		_, ok := h.Get([]byte(fmt.Sprintf("key%03d", i)))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(key%03d) = %v, want %v", i, ok, want)
		}
	}
	if err := h.Delete([]byte("key000")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteEmptiesART(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "zz-solo", "v")
	if h.NumARTs() != 1 {
		t.Fatalf("NumARTs = %d, want 1", h.NumARTs())
	}
	if err := h.Delete([]byte("zz-solo")); err != nil {
		t.Fatal(err)
	}
	if h.NumARTs() != 0 {
		t.Fatalf("NumARTs = %d after emptying, want 0 (paper Alg. 5 lines 15-16)", h.NumARTs())
	}
	// The hash key is usable again.
	mustPut(t, h, "zz-back", "w")
	mustGet(t, h, "zz-back", "w")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLeafSlotReuseAfterDelete(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "aa1", "v1")
	leaf1, _ := h.GetLeaf([]byte("aa1"))
	if err := h.Delete([]byte("aa1")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, h, "aa2", "v2")
	leaf2, _ := h.GetLeaf([]byte("aa2"))
	if leaf1 != leaf2 {
		t.Fatalf("slot not reused: %d then %d", leaf1, leaf2)
	}
	mustGet(t, h, "aa2", "v2")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrdered(t *testing.T) {
	h := newHART(t)
	var want []string
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%05d", i*7%500)
		if err := h.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		want = append(want, fmt.Sprintf("k%05d", i))
	}
	var got []string
	h.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Scan visited %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Scan order: got[%d]=%q want %q", i, got[i], want[i])
		}
	}
	// Bounded scan.
	got = got[:0]
	h.Scan([]byte("k00100"), []byte("k00200"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 100 || got[0] != "k00100" || got[99] != "k00199" {
		t.Fatalf("bounded scan: %d keys [%q..%q]", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	n := 0
	h.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early-stop scan visited %d", n)
	}
}

func TestScanAcrossHashKeys(t *testing.T) {
	// Keys spanning multiple shards, including short keys, come out in
	// global order.
	h := newHART(t)
	keys := []string{"a", "ab", "abc", "ac", "b", "ba", "bb1", "bb2", "c"}
	for _, k := range keys {
		mustPut(t, h, k, "v")
	}
	var got []string
	h.Scan(nil, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("scan out of order: %q >= %q", got[i-1], got[i])
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(keys))
	}
	// Range crossing a shard boundary.
	got = got[:0]
	h.Scan([]byte("ab"), []byte("bb2"), func(k, _ []byte) bool { got = append(got, string(k)); return true })
	want := []string{"ab", "abc", "ac", "b", "ba", "bb1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("range scan = %v, want %v", got, want)
	}
}

func TestRecoveryRebuild(t *testing.T) {
	h := newHART(t)
	rng := rand.New(rand.NewSource(3))
	ref := map[string]string{}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("%c%c%06d", 'a'+rng.Intn(4), 'a'+rng.Intn(4), rng.Intn(100000))
		v := fmt.Sprintf("v%08d", i)
		if err := h.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	// Delete a third.
	i := 0
	for k := range ref {
		if i%3 == 0 {
			if err := h.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		}
		i++
	}
	// Clean restart (all data persisted).
	img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != len(ref) {
		t.Fatalf("recovered Len = %d, want %d", h2.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := h2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("after recovery Get(%q) = (%q,%v), want (%q,true)", k, got, ok, v)
		}
	}
	if err := h2.Check(); err != nil {
		t.Fatal(err)
	}
	// Rebuild in place gives the same answer (Fig. 10c driver).
	if err := h2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if h2.Len() != len(ref) {
		t.Fatalf("rebuilt Len = %d, want %d", h2.Len(), len(ref))
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 100; i++ {
		mustPut(t, h, fmt.Sprintf("id%04d", i), "v")
	}
	img, _ := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	h2, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Crash the recovered instance without any new writes and recover
	// again: nothing may change.
	img2, _ := h2.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	h3, err := Open(img2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h3.Len() != 100 {
		t.Fatalf("second recovery Len = %d, want 100", h3.Len())
	}
	if err := h3.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedRejectsOps(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "k", "v")
	h.Close()
	if err := h.Put([]byte("k2"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, ok := h.Get([]byte("k")); ok {
		t.Fatal("Get after close succeeded")
	}
}

func TestManyRecordsAcrossChunks(t *testing.T) {
	// More than one chunk of leaves and values; forces chunk-list growth.
	h := newHART(t)
	const n = 500 // ~9 leaf chunks
	for i := 0; i < n; i++ {
		mustPut(t, h, fmt.Sprintf("ck%06d", i), fmt.Sprintf("%016d", i))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, h, fmt.Sprintf("ck%06d", i), fmt.Sprintf("%016d", i))
	}
	// Delete everything: chunks must recycle without corruption.
	for i := 0; i < n; i++ {
		if err := h.Delete([]byte(fmt.Sprintf("ck%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after full delete", h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Records != 0 {
		t.Fatalf("Stats.Records = %d", st.Records)
	}
}

func TestStatsAndSizeInfo(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 1000; i++ {
		mustPut(t, h, fmt.Sprintf("st%06d", i), mixedValue("%07d", i))
	}
	st := h.Stats()
	if st.Records != 1000 {
		t.Fatalf("Records = %d", st.Records)
	}
	if st.InlineRecords != 666 { // mixedValue: all but every third, 0 to 999
		t.Fatalf("InlineRecords = %d, want 666", st.InlineRecords)
	}
	if st.Size.PMBytes <= 0 || st.Size.DRAMBytes <= 0 {
		t.Fatalf("SizeInfo non-positive: %+v", st.Size)
	}
	if st.ART.Records != 1000 {
		t.Fatalf("ART.Records = %d", st.ART.Records)
	}
	if st.ARTs != h.NumARTs() {
		t.Fatalf("ARTs mismatch: %d vs %d", st.ARTs, h.NumARTs())
	}
	if len(st.Alloc) != 3 {
		t.Fatalf("Alloc classes = %d", len(st.Alloc))
	}
}

// TestDeleteDoesNotPoisonReusedValueSlot: a deleted record's value slot
// and leaf slot are both handed out again, the leaf slot with the dead
// record's word 0 still naming the value slot's new owner. Nothing may act
// on that stale word: the new owner keeps its value and Check stays clean.
// All three keys hash to one allocator stripe ("xx" and "zz"), and k2's
// 16-byte key takes a leaf40, so k2 reuses only the value slot and k3 only
// the leaf slot.
func TestDeleteDoesNotPoisonReusedValueSlot(t *testing.T) {
	h := newHART(t)
	if epalloc.StripeFor([]byte("xx")) != epalloc.StripeFor([]byte("zz")) {
		t.Fatal("fixture: xx and zz no longer share a stripe")
	}
	// k1's value occupies a value slot; delete k1 frees it and its leaf.
	mustPut(t, h, "xx-one", "willfree-object")
	oldLeaf, _ := h.GetLeaf([]byte("xx-one"))
	oldVal, _ := unpackValue(h.arena.Read8(oldLeaf + lfWord0))
	if err := h.Delete([]byte("xx-one")); err != nil {
		t.Fatal(err)
	}
	// k2 reuses the freed value slot.
	mustPut(t, h, "zz-two-long-key!", "newowner-object")
	k2Leaf, _ := h.GetLeaf([]byte("zz-two-long-key!"))
	if v, _ := unpackValue(h.arena.Read8(k2Leaf + lfWord0)); v != oldVal {
		t.Fatalf("fixture: k2's value took slot %d, not the freed %d", v, oldVal)
	}
	// k3 reuses k1's leaf slot, whose word 0 still names k2's live value.
	mustPut(t, h, "zz-three", "fresh")
	if leaf, _ := h.GetLeaf([]byte("zz-three")); leaf != oldLeaf {
		t.Fatalf("fixture: k3 took leaf slot %d, not the freed %d", leaf, oldLeaf)
	}
	mustGet(t, h, "zz-two-long-key!", "newowner-object")
	mustGet(t, h, "zz-three", "fresh")
	if err := h.Check(); err != nil {
		t.Fatalf("aliasing regression: %v", err)
	}
}

// TestChurnHeavyMixedOps replays a delete-heavy interleaving that
// repeatedly recycles leaf and value slots, then fscks.
func TestChurnHeavyMixedOps(t *testing.T) {
	h := newHART(t)
	rng := rand.New(rand.NewSource(77))
	live := map[string]string{}
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("%c%c%03d", 'a'+rng.Intn(3), 'a'+rng.Intn(3), rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			v := mixedValue("v%06d", i)
			if err := h.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			live[k] = v
		case 1:
			err := h.Delete([]byte(k))
			if _, ok := live[k]; ok != (err == nil) {
				t.Fatalf("op %d: delete(%q) err=%v but live=%v", i, k, err, ok)
			}
			delete(live, k)
		case 2:
			got, ok := h.Get([]byte(k))
			want, exists := live[k]
			if ok != exists || (ok && string(got) != want) {
				t.Fatalf("op %d: get(%q) = (%q,%v), want (%q,%v)", i, k, got, ok, want, exists)
			}
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if h.Len() != len(live) {
		t.Fatalf("Len = %d, model %d", h.Len(), len(live))
	}
}

// TestParallelRecoveryEquivalence: recovery with workers produces exactly
// the same index as serial recovery.
func TestParallelRecoveryEquivalence(t *testing.T) {
	h := newHART(t)
	rng := rand.New(rand.NewSource(17))
	ref := map[string]string{}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("%c%c%05d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(50000))
		v := mixedValue("v%06d", i)
		if err := h.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	img, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	open := func(workers int) *HART {
		arena, err := pmem.Attach(append([]byte(nil), img...), pmem.Config{Size: int64(len(img)), Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		h2, err := Open(arena, Options{RecoveryWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return h2
	}
	serial, parallel := open(1), open(8)
	if serial.Len() != len(ref) || parallel.Len() != len(ref) {
		t.Fatalf("Len: serial %d, parallel %d, want %d", serial.Len(), parallel.Len(), len(ref))
	}
	for k, v := range ref {
		pv, ok := parallel.Get([]byte(k))
		if !ok || string(pv) != v {
			t.Fatalf("parallel recovery lost %q", k)
		}
	}
	// Identical ordered key streams.
	sk, pk := serial.Keys(), parallel.Keys()
	if len(sk) != len(pk) {
		t.Fatalf("key counts differ: %d vs %d", len(sk), len(pk))
	}
	for i := range sk {
		if !bytes.Equal(sk[i], pk[i]) {
			t.Fatalf("key stream differs at %d: %q vs %q", i, sk[i], pk[i])
		}
	}
	if err := parallel.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanReverse(t *testing.T) {
	h := newHART(t)
	keys := []string{"a", "ab", "abc", "ac", "b", "ba", "bb1", "bb2", "c"}
	for _, k := range keys {
		mustPut(t, h, k, "v")
	}
	var got []string
	h.ScanReverse(nil, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
	if len(got) != len(keys) {
		t.Fatalf("reverse scan saw %d keys", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] <= got[i] {
			t.Fatalf("reverse scan out of order: %q then %q", got[i-1], got[i])
		}
	}
	got = got[:0]
	h.ScanReverse([]byte("ab"), []byte("bb2"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"bb1", "ba", "b", "ac", "abc", "ab"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bounded reverse scan = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	h.ScanReverse(nil, nil, func(k, _ []byte) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestHashKeyLenVariants runs basic workloads at every kh the directory
// holds; any kh must produce an equivalent key-value map (only the DRAM
// layout differs).
func TestHashKeyLenVariants(t *testing.T) {
	for _, kh := range []int{1, 2, 3} {
		h, err := New(Options{ArenaSize: 16 << 20, HashKeyLen: kh})
		if err != nil {
			t.Fatalf("kh=%d: %v", kh, err)
		}
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("%c%c%05d", 'a'+i%5, 'a'+(i/5)%5, i)
			if err := h.Put([]byte(k), []byte(fmt.Sprintf("%d", i))); err != nil {
				t.Fatalf("kh=%d: %v", kh, err)
			}
		}
		for i := 0; i < 2000; i += 53 {
			k := fmt.Sprintf("%c%c%05d", 'a'+i%5, 'a'+(i/5)%5, i)
			v, ok := h.Get([]byte(k))
			if !ok || string(v) != fmt.Sprintf("%d", i) {
				t.Fatalf("kh=%d: Get(%q) = (%q,%v)", kh, k, v, ok)
			}
		}
		// Ordered scan must be kh-invariant.
		prev := ""
		n := 0
		h.Scan(nil, nil, func(k, _ []byte) bool {
			if string(k) <= prev {
				t.Fatalf("kh=%d: scan out of order", kh)
			}
			prev = string(k)
			n++
			return true
		})
		if n != 2000 {
			t.Fatalf("kh=%d: scan saw %d", kh, n)
		}
		if err := h.Check(); err != nil {
			t.Fatalf("kh=%d: %v", kh, err)
		}
	}
	// Out-of-range kh rejected: the directory holds hash keys of at most
	// hashdir.MaxKeyLen bytes.
	for _, kh := range []int{hashdir.MaxKeyLen + 1, MaxKeyLen} {
		if _, err := New(Options{HashKeyLen: kh}); err == nil {
			t.Fatalf("kh = %d accepted", kh)
		}
	}
	if _, err := New(Options{HashKeyLen: -1}); err == nil {
		t.Fatal("negative kh accepted")
	}
}
