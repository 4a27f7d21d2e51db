package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/casl-sdsu/hart/internal/epalloc"
)

func TestPutBatchBasic(t *testing.T) {
	h := newHART(t)
	var recs []Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, Record{
			Key:   []byte(fmt.Sprintf("%c%c%04d", 'a'+i%4, 'a'+(i/4)%4, i)),
			Value: []byte(mixedValue("v%05d", i)),
		})
	}
	// Shuffle so grouping actually reorders.
	rand.New(rand.NewSource(3)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	n, err := h.PutBatch(recs)
	if err != nil || n != 1000 {
		t.Fatalf("PutBatch = (%d,%v)", n, err)
	}
	if h.Len() != 1000 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := 0; i < 1000; i += 97 {
		k := fmt.Sprintf("%c%c%04d", 'a'+i%4, 'a'+(i/4)%4, i)
		if v, ok := h.Get([]byte(k)); !ok || string(v) != mixedValue("v%05d", i) {
			t.Fatalf("Get(%q) = (%q,%v)", k, v, ok)
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchUpdatesAndValidates(t *testing.T) {
	h := newHART(t)
	mustPut(t, h, "bb-key", "old")
	n, err := h.PutBatch([]Record{
		{Key: []byte("bb-key"), Value: []byte("new")},
		{Key: []byte("bb-other"), Value: []byte("x")},
	})
	if err != nil || n != 2 {
		t.Fatalf("PutBatch = (%d,%v)", n, err)
	}
	mustGet(t, h, "bb-key", "new")
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	// Validation rejects the whole batch up front.
	if _, err := h.PutBatch([]Record{{Key: []byte("ok"), Value: []byte("v")}, {Key: nil, Value: []byte("v")}}); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("bad batch: %v", err)
	}
	if _, ok := h.Get([]byte("ok")); ok {
		t.Fatal("partially applied an invalid batch")
	}
}

// TestPutBatchConcurrentMultiShard drives PutBatch from several writers
// at once, each over its own key range but all spanning the same set of
// hash-directory shards, with concurrent lock-free readers that check
// every value they find against its key — a group holds one seqlock
// section open across several per-record commits, and striped allocation
// and micro-log claims race across every shard. Run under -race by
// check.sh.
func TestPutBatchConcurrentMultiShard(t *testing.T) {
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds, perBatch = 6, 8, 48
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var recs []Record
				for i := 0; i < perBatch; i++ {
					// Shard byte cycles so every batch crosses many shards;
					// the w component keeps writers' key sets disjoint.
					recs = append(recs, Record{
						Key:   []byte(fmt.Sprintf("%c%c-w%d-%04d", 'a'+i%8, 'a'+(i/8)%3, w, round*perBatch+i)),
						Value: []byte(fmt.Sprintf("w%dr%dv%d", w, round, i)),
					})
				}
				if n, err := h.PutBatch(recs); err != nil || n != len(recs) {
					errs <- fmt.Errorf("writer %d round %d: PutBatch = (%d,%v)", w, round, n, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			buf := make([]byte, 0, MaxValueLen)
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, idx := rng.Intn(writers), rng.Intn(rounds*perBatch)
				i := idx % perBatch
				k := fmt.Sprintf("%c%c-w%d-%04d", 'a'+i%8, 'a'+(i/8)%3, w, idx)
				v, ok := h.GetInto([]byte(k), buf)
				if !ok {
					continue
				}
				var vw, vround, vi int
				if _, err := fmt.Sscanf(string(v), "w%dr%dv%d", &vw, &vround, &vi); err != nil || vw != w || vround*perBatch+vi != idx {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := writers * rounds * perBatch
	if h.Len() != want {
		t.Fatalf("Len = %d, want %d", h.Len(), want)
	}
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, perBatch - 1, rounds*perBatch - 1} {
			k := fmt.Sprintf("%c%c-w%d-%04d", 'a'+i%8, 'a'+(i/8)%3, w, i)
			if _, ok := h.Get([]byte(k)); !ok {
				t.Fatalf("missing %q", k)
			}
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if err := h.Allocator().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchFailureContract pins what a failed PutBatch leaves behind,
// whatever protocol applies a group: for every k until the batch goes
// through, the (k+1)-th SetBit or Alloc fails, and then the returned count
// is the number of records applied, exactly that prefix of the sorted batch
// is visible, nothing is left in flight, and a retry of the rest applies
// it. The batch spans two hash-key groups, each mixing both value shapes:
// inline and out-of-line inserts, an update from inline to a value object,
// a same-length inline update, and a key inserted and then updated within
// the batch.
func TestPutBatchFailureContract(t *testing.T) {
	base := map[string]string{"fc-up": "old", "gx-up": "old"}
	recs := []Record{
		{Key: []byte("gx-obj"), Value: []byte("gx-in-an-object")},
		{Key: []byte("fc-up"), Value: []byte("now-in-an-object")},
		{Key: []byte("fc-new"), Value: []byte("1")},
		{Key: []byte("fc-dup"), Value: []byte("a")},
		{Key: []byte("gx-up"), Value: []byte("new")},
		{Key: []byte("fc-obj"), Value: []byte("fc-in-an-object")},
		{Key: []byte("fc-dup"), Value: []byte("b-in-an-object")},
		{Key: []byte("gx-new"), Value: []byte("2")},
	}
	sorted := slices.Clone(recs)
	sort.SliceStable(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].Key, sorted[j].Key) < 0 })
	apply := func(m map[string]string, rs []Record) {
		for _, r := range rs {
			m[string(r.Key)] = string(r.Value)
		}
	}
	for _, fault := range []struct {
		name string
		arm  func(a *epalloc.Allocator, k int64)
	}{
		{"SetBit", (*epalloc.Allocator).FailSetBitAfter},
		{"Alloc", (*epalloc.Allocator).FailAllocAfter},
	} {
		for k := int64(0); ; k++ {
			if k == 64 {
				t.Fatalf("%s: batch still failing after %d injections", fault.name, k)
			}
			h := newHART(t)
			for key, v := range base {
				mustPut(t, h, key, v)
			}
			fault.arm(h.Allocator(), k)
			n, err := h.PutBatch(recs)
			h.Allocator().DisarmFaults()
			if err != nil && !errors.Is(err, epalloc.ErrInjected) {
				t.Fatalf("%s after %d: PutBatch = (%d,%v)", fault.name, k, n, err)
			}
			if n < 0 || n > len(sorted) || (err == nil) != (n == len(sorted)) {
				t.Fatalf("%s after %d: PutBatch = (%d,%v) for %d records", fault.name, k, n, err, len(sorted))
			}
			want := maps.Clone(base)
			apply(want, sorted[:n])
			checkContents(t, h, want)
			if err == nil {
				break
			}
			if m, err := h.PutBatch(sorted[n:]); err != nil || m != len(sorted)-n {
				t.Fatalf("%s after %d: retry PutBatch = (%d,%v), want %d", fault.name, k, m, err, len(sorted)-n)
			}
			apply(want, sorted[n:])
			checkContents(t, h, want)
		}
	}
}

// checkContents requires the store to hold exactly want and to pass both
// consistency checks.
func checkContents(t *testing.T, h *HART, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	h.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if !maps.Equal(got, want) || h.Len() != len(want) {
		t.Fatalf("contents %v (Len %d), want %v", got, h.Len(), want)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	if err := h.Allocator().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchDuplicateKeys pins the stable-sort contract: duplicates of
// one key within a batch apply in submission order, so the batch nets out
// to the last submitted value — including a duplicate of a key the same
// batch inserts, which exercises the flush-then-update path (the first
// record's leaf bit must commit before the second record's update).
func TestPutBatchDuplicateKeys(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, h, "dupbase", "old")
	n, err := h.PutBatch([]Record{
		{Key: []byte("dupnew"), Value: []byte("first")},
		{Key: []byte("dupbase"), Value: []byte("mid")},
		{Key: []byte("dupnew"), Value: []byte("second")},
		{Key: []byte("dupbase"), Value: []byte("final")},
		{Key: []byte("dupnew"), Value: []byte("third")},
	})
	if err != nil || n != 5 {
		t.Fatalf("PutBatch = (%d,%v)", n, err)
	}
	mustGet(t, h, "dupnew", "third")
	mustGet(t, h, "dupbase", "final")
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPutBatchLegacyMatchesStriped runs a mixed batch stream, full of
// duplicate keys within and across batches, through PutBatch and through a
// plain map applied record by record in submission order, and requires
// identical contents: batching changes the cost, not the semantics.
func TestPutBatchLegacyMatchesStriped(t *testing.T) {
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 40; round++ {
		var recs []Record
		for i := 0; i < 1+rng.Intn(96); i++ {
			recs = append(recs, Record{
				Key:   []byte(fmt.Sprintf("%c%c%03d", 'a'+rng.Intn(5), 'a'+rng.Intn(5), rng.Intn(400))),
				Value: []byte(fmt.Sprintf("r%dv%d", round, i)),
			})
		}
		if n, err := h.PutBatch(recs); err != nil || n != len(recs) {
			t.Fatalf("round %d: PutBatch = (%d,%v), want %d", round, n, err, len(recs))
		}
		for _, r := range recs {
			want[string(r.Key)] = string(r.Value)
		}
	}
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
	seen := 0
	h.Scan(nil, nil, func(k, v []byte) bool {
		if wv, ok := want[string(k)]; !ok || wv != string(v) {
			t.Fatalf("key %q: got %q, want (%q,%v)", k, v, wv, ok)
		}
		seen++
		return true
	})
	if seen != len(want) {
		t.Fatalf("Scan saw %d records, want %d", seen, len(want))
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPutBatchMatchesIndividualPuts(t *testing.T) {
	ha, hb := newHART(t), newHART(t)
	rng := rand.New(rand.NewSource(8))
	var recs []Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, Record{
			Key:   []byte(fmt.Sprintf("%c%c%04d", 'a'+rng.Intn(3), 'a'+rng.Intn(3), rng.Intn(3000))),
			Value: []byte(mixedValue("v%06d", i)),
		})
	}
	for _, r := range recs {
		if err := ha.Put(r.Key, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	// Feed the batch de-duplicated so both sides see every key once (the
	// duplicate ordering itself is pinned by TestPutBatchDuplicateKeys).
	last := map[string][]byte{}
	for _, r := range recs {
		last[string(r.Key)] = r.Value
	}
	var dedup []Record
	for k, v := range last {
		dedup = append(dedup, Record{Key: []byte(k), Value: v})
	}
	if _, err := hb.PutBatch(dedup); err != nil {
		t.Fatal(err)
	}
	if ha.Len() != hb.Len() {
		t.Fatalf("Len: %d vs %d", ha.Len(), hb.Len())
	}
	for k, v := range last {
		got, ok := hb.Get([]byte(k))
		if !ok || string(got) != string(v) {
			t.Fatalf("batch Get(%q) = (%q,%v), want %q", k, got, ok, v)
		}
	}
	if err := hb.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSortRecordsMatchesStableSort pins PutBatch's application order: by
// key, and among duplicates by submission position — exactly what a
// stable sort of the records by key gives.
func TestSortRecordsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		recs := make([]Record, rng.Intn(300))
		for i := range recs {
			// A small key space, so most batches carry duplicates.
			recs[i] = Record{
				Key:   []byte(fmt.Sprintf("%c%c%d", 'a'+rng.Intn(3), 'a'+rng.Intn(3), rng.Intn(20))),
				Value: []byte(fmt.Sprint(i)),
			}
		}
		want := slices.Clone(recs)
		sort.SliceStable(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })
		got := sortRecords(recs)
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("round %d: record %d is (%s, %s), want (%s, %s)", round, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

// TestPutBatchAllocBudget bounds the allocations of a 256-record PutBatch
// into shards that already exist: one record per shard, the shape of a
// bulk load over a kh = 2 directory, and sixteen per shard. The budgets
// are what the batch cost when it sorted the records themselves by
// reflection; sorting positions must not cost more.
func TestPutBatchAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
		budget float64
	}{
		{"1 per shard", 256, 4},
		{"16 per shard", 16, 116},
	} {
		h, err := New(Options{ArenaSize: 16 << 20})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]Record, 256)
		for i := range recs {
			s := i % c.shards
			recs[i] = Record{Key: []byte(fmt.Sprintf("%c%c-%03d", 'A'+s/16, 'A'+s%16, i)), Value: []byte("value-01")}
		}
		if n, err := h.PutBatch(recs); err != nil || n != len(recs) {
			t.Fatalf("%s: load PutBatch = (%d, %v)", c.name, n, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if n, err := h.PutBatch(recs); err != nil || n != len(recs) {
				t.Fatalf("%s: PutBatch = (%d, %v)", c.name, n, err)
			}
		})
		if allocs > c.budget {
			t.Errorf("%s: PutBatch of %d records allocates %.1f, budget %.0f", c.name, len(recs), allocs, c.budget)
		}
		h.Close()
	}
}
