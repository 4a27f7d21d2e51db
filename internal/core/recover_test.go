package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/casl-sdsu/hart/internal/epalloc"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// recoveryFixture builds a store with inserts, updates and deletes, and
// returns its durable image plus the reference contents. A third of its
// keys are long enough for a 40-byte leaf, the rest take 24-byte ones.
func recoveryFixture(t *testing.T, n int) ([]byte, map[string]string) {
	t.Helper()
	h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ref := map[string]string{}
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%c%c%05d", 'a'+rng.Intn(6), 'a'+rng.Intn(6), rng.Intn(10*n))
		if i%3 == 1 {
			k += "-in-a-40B-leaf" // 21 bytes
		}
		v := fmt.Sprintf("v%06d", i) // 7 bytes: in the leaf
		if i%4 == 0 {
			v += "-wide" // 12: in a value object
		}
		if err := h.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if _, dup := ref[k]; !dup {
			keys = append(keys, k)
		}
		ref[k] = v
	}
	// Deletes and updates so recovery sees reused slots, churn in the
	// value class and records that changed shape in both directions.
	for i := 0; i < len(keys); i += 3 {
		if err := h.Delete([]byte(keys[i])); err != nil {
			t.Fatal(err)
		}
		delete(ref, keys[i])
	}
	for i := 1; i < len(keys); i += 5 {
		if _, live := ref[keys[i]]; !live {
			continue
		}
		v := fmt.Sprintf("upd%05d", i)
		if i%2 == 0 {
			v += "-wide"
		}
		if err := h.Put([]byte(keys[i]), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[keys[i]] = v
	}
	img, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	return img, ref
}

// openImage attaches a private copy of img and opens it with opts.
func openImage(t *testing.T, img []byte, opts Options) *HART {
	t.Helper()
	arena, err := pmem.Attach(append([]byte(nil), img...), pmem.Config{Size: int64(len(img)), Tracking: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Open(arena, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// assertContents checks Len, every reference Get, and (optionally) the
// ordered key stream against want.
func assertContents(t *testing.T, h *HART, ref map[string]string, wantKeys [][]byte, mode string) {
	t.Helper()
	if h.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, want %d", mode, h.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := h.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("%s: Get(%q) = (%q, %v), want %q", mode, k, got, ok, v)
		}
	}
	if wantKeys != nil {
		keys := h.Keys()
		if len(keys) != len(wantKeys) {
			t.Fatalf("%s: %d keys, want %d", mode, len(keys), len(wantKeys))
		}
		for i := range keys {
			if !bytes.Equal(keys[i], wantKeys[i]) {
				t.Fatalf("%s: key stream differs at %d: %q vs %q", mode, i, keys[i], wantKeys[i])
			}
		}
	}
}

// sameInventory reports whether two recoveries found and repaired the same
// things.
func sameInventory(a, b RecoveryStats) bool {
	return a.CompletedULogs == b.CompletedULogs &&
		a.LiveLeaves == b.LiveLeaves &&
		a.OrphanValues == b.OrphanValues
}

// TestRecoveryModeEquivalence: every recovery configuration — serial,
// parallel, lazy (drained and first-touch) — produces exactly the index the
// fixture's reference map describes, and the same RecoveryStats inventory,
// from the same durable image.
func TestRecoveryModeEquivalence(t *testing.T) {
	img, ref := recoveryFixture(t, 4000)
	wantKeys := make([][]byte, 0, len(ref))
	for k := range ref {
		wantKeys = append(wantKeys, []byte(k))
	}
	sort.Slice(wantKeys, func(i, j int) bool { return bytes.Compare(wantKeys[i], wantKeys[j]) < 0 })

	base := openImage(t, img, Options{})
	baseStats := base.LastRecoveryStats()
	if baseStats.LiveLeaves != len(ref) {
		t.Fatalf("serial: LiveLeaves = %d, want %d", baseStats.LiveLeaves, len(ref))
	}
	assertContents(t, base, ref, wantKeys, "serial")
	if err := base.Check(); err != nil {
		t.Fatalf("serial: %v", err)
	}

	modes := []struct {
		name string
		opts Options
	}{
		{"parallel", Options{RecoveryWorkers: 8}},
		{"lazy", Options{LazyRecovery: true, RecoveryWorkers: 8}},
		{"lazy-serial", Options{LazyRecovery: true}},
	}
	for _, m := range modes {
		h := openImage(t, img, m.opts)
		if st := h.LastRecoveryStats(); !sameInventory(st, baseStats) {
			t.Fatalf("%s: RecoveryStats diverge: %+v vs %+v", m.name, st, baseStats)
		}
		if m.opts.LazyRecovery {
			// First-touch reads before any drain must already be correct.
			for k, v := range ref {
				got, ok := h.Get([]byte(k))
				if !ok || string(got) != v {
					t.Fatalf("%s pre-drain: Get(%q) = (%q, %v), want %q", m.name, k, got, ok, v)
				}
				break
			}
			h.DrainRecovery()
			if p := h.PendingShards(); p != 0 {
				t.Fatalf("%s: %d shards still pending after drain", m.name, p)
			}
		}
		assertContents(t, h, ref, wantKeys, m.name)
		if err := h.Check(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}
}

// TestRecoveryStatsCrashEquivalence: recovery from a mid-operation crash
// image yields one of the states the interrupted history allows, and finds
// and repairs the same inventory (ulogs, orphan values) at
// every worker count, eager or lazy.
func TestRecoveryStatsCrashEquivalence(t *testing.T) {
	for fail := int64(0); ; fail++ {
		h, err := New(Options{ArenaSize: 16 << 20, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := map[string]string{}
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("pre%03d", i)
			mustPut(t, h, k, "stable")
			ref[k] = "stable"
		}
		h.Arena().FailAfterPersists(fail)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := r.(pmem.CrashError); !isCrash {
						panic(r)
					}
					crashed = true
				}
			}()
			_ = h.Put([]byte("pre007"), []byte("updated")) // update: exercises the ulog
			_ = h.Delete([]byte("pre011"))
		}()
		h.Arena().DisarmCrash()
		if !crashed {
			break
		}
		img, err := h.Arena().DurableImage()
		if err != nil {
			t.Fatal(err)
		}
		// The crash cut the history short somewhere: the update is in or
		// out, and the delete can only be in if the update before it is.
		base := openImage(t, img, Options{})
		if v, ok := base.Get([]byte("pre007")); ok && string(v) == "updated" {
			ref["pre007"] = "updated"
			if _, ok := base.Get([]byte("pre011")); !ok {
				delete(ref, "pre011")
			}
		}
		want := base.LastRecoveryStats()
		if want.LiveLeaves != len(ref) {
			t.Fatalf("fail=%d: LiveLeaves = %d, want %d", fail, want.LiveLeaves, len(ref))
		}
		assertContents(t, base, ref, nil, fmt.Sprintf("fail=%d serial", fail))
		if err := base.Check(); err != nil {
			t.Fatalf("fail=%d serial: %v", fail, err)
		}
		for _, opts := range []Options{
			{RecoveryWorkers: 8},
			{LazyRecovery: true, RecoveryWorkers: 8},
		} {
			mode := fmt.Sprintf("fail=%d lazy=%v", fail, opts.LazyRecovery)
			h2 := openImage(t, img, opts)
			if st := h2.LastRecoveryStats(); !sameInventory(st, want) {
				t.Fatalf("%s: stats diverge: %+v vs %+v", mode, st, want)
			}
			assertContents(t, h2, ref, nil, mode)
			if err := h2.Check(); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
		}
	}
}

// TestLazyRecoveryFirstTouch: a lazily recovered store serves reads,
// writes and scans before any drain, building shards on first touch;
// PendingShards decreases monotonically to zero.
func TestLazyRecoveryFirstTouch(t *testing.T) {
	img, ref := recoveryFixture(t, 3000)
	h := openImage(t, img, Options{LazyRecovery: true, RecoveryWorkers: 4})
	pend0 := h.PendingShards()
	if pend0 == 0 {
		t.Fatal("no pending shards after lazy open")
	}
	if h.Len() != len(ref) {
		t.Fatalf("Len = %d before drain, want %d", h.Len(), len(ref))
	}

	// Reads on untouched shards.
	seen := 0
	for k, v := range ref {
		got, ok := h.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("pre-drain Get(%q) = (%q, %v), want %q", k, got, ok, v)
		}
		if seen++; seen >= 50 {
			break
		}
	}
	if p := h.PendingShards(); p >= pend0 {
		t.Fatalf("PendingShards did not shrink on first touch: %d -> %d", pend0, p)
	}

	// Writes on (possibly) untouched shards.
	mustPut(t, h, "zz-new-key", "zz-new-val")
	ref["zz-new-key"] = "zz-new-val"
	for k := range ref {
		if err := h.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(ref, k)
		break
	}

	// A full scan touches every shard: equivalent to a drain.
	if got := len(h.Keys()); got != len(ref) {
		t.Fatalf("scan saw %d keys, want %d", got, len(ref))
	}
	if p := h.PendingShards(); p != 0 {
		t.Fatalf("%d shards pending after full scan", p)
	}
	assertContents(t, h, ref, nil, "post-scan")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// stripeShards groups the fixture's keys by hash key and returns, for
// stripe st, one key of each of its shards, in hash-key order.
func stripeShards(h *HART, ref map[string]string, st int) []string {
	one := map[string]string{}
	for k := range ref {
		if hk, _ := h.splitKey([]byte(k)); epalloc.StripeFor(hk) == st {
			one[string(hk)] = k
		}
	}
	keys := make([]string, 0, len(one))
	for _, k := range one {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// busiestStripe returns the stripe that holds the most of the fixture's
// shards.
func busiestStripe(h *HART, ref map[string]string) int {
	best, most := 0, 0
	for st := 0; st < epalloc.NumStripes; st++ {
		if n := len(stripeShards(h, ref, st)); n > most {
			best, most = st, n
		}
	}
	return best
}

// TestLazyRecoveryStripeGrouping: a lazy open files every live leaf in its
// allocator stripe's log, and the first touch of any shard groups that
// log by hash key, once. That touch builds its own shard and no other:
// the rest of the stripe stays pending and builds one by one from the
// grouped log, and a drain then finishes the other stripes. Four
// goroutines first-touching four shards of one stripe at once race on
// the grouping (run it under -race).
func TestLazyRecoveryStripeGrouping(t *testing.T) {
	img, ref := recoveryFixture(t, 3000)
	t.Run("one by one", func(t *testing.T) {
		h := openImage(t, img, Options{LazyRecovery: true, RecoveryWorkers: 4})
		keys := stripeShards(h, ref, busiestStripe(h, ref))
		if len(keys) < 2 {
			t.Fatalf("busiest stripe holds %d shards", len(keys))
		}
		for i, k := range keys {
			before := h.PendingShards()
			if got, ok := h.Get([]byte(k)); !ok || string(got) != ref[k] {
				t.Fatalf("Get(%q) = (%q, %v), want %q", k, got, ok, ref[k])
			}
			if after := h.PendingShards(); after != before-1 {
				t.Fatalf("touch %d of the stripe (%q): PendingShards %d -> %d, want one fewer", i, k, before, after)
			}
		}
		h.DrainRecovery()
		if p := h.PendingShards(); p != 0 {
			t.Fatalf("%d shards pending after drain", p)
		}
		assertContents(t, h, ref, nil, "drained")
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("concurrent first touches", func(t *testing.T) {
		h := openImage(t, img, Options{LazyRecovery: true, RecoveryWorkers: 4})
		keys := stripeShards(h, ref, busiestStripe(h, ref))
		if len(keys) < 4 {
			t.Fatalf("busiest stripe holds %d shards, want 4", len(keys))
		}
		before := h.PendingShards()
		var start, wg sync.WaitGroup
		start.Add(1)
		errs := make(chan string, 4)
		for _, k := range keys[:4] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if got, ok := h.Get([]byte(k)); !ok || string(got) != ref[k] {
					errs <- fmt.Sprintf("Get(%q) = (%q, %v), want %q", k, got, ok, ref[k])
				}
			}()
		}
		start.Done()
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
		if after := h.PendingShards(); after != before-4 {
			t.Fatalf("four first touches: PendingShards %d -> %d", before, after)
		}
		h.DrainRecovery()
		assertContents(t, h, ref, nil, "drained")
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoveryHashKeyLens reopens a store eagerly and lazily at every kh
// the directory holds, with keys shorter than kh (1- and 2-byte keys at
// kh = 3) and hash keys at the ends of the byte range, so a lazy scan's
// packed hash keys must keep every shard apart: each mode must rebuild
// the same shards and the same contents.
func TestRecoveryHashKeyLens(t *testing.T) {
	for _, kh := range []int{1, 2, 3} {
		h, err := New(Options{ArenaSize: 16 << 20, HashKeyLen: kh, Tracking: true})
		if err != nil {
			t.Fatal(err)
		}
		ref := map[string]string{}
		put := func(k string, i int) {
			v := mixedValue("v%d", i)
			mustPut(t, h, k, v)
			ref[k] = v
		}
		for i, k := range []string{"a", "b", "ab", "ba", "\x00", "\xff", "\x00\x00", "\xff\xff", "\x00\x00\x00", "\xff\xff\xff", "a\x00", "\x00a"} {
			put(k, i)
		}
		for i := 0; i < 1500; i++ {
			k := fmt.Sprintf("%c%c%c%d", 'a'+i%4, 'a'+i/4%4, 'a'+i/16%3, i)
			if i%3 == 0 {
				k += "-in-a-40B-leaf"
			}
			put(k[:1+i%len(k)], i)
		}
		img, err := h.Arena().DurableImage()
		if err != nil {
			t.Fatal(err)
		}
		shards := h.NumARTs()
		for _, opts := range []Options{
			{RecoveryWorkers: 1},
			{RecoveryWorkers: 4},
			{RecoveryWorkers: 1, LazyRecovery: true},
			{RecoveryWorkers: 4, LazyRecovery: true},
		} {
			mode := fmt.Sprintf("kh=%d workers=%d lazy=%v", kh, opts.RecoveryWorkers, opts.LazyRecovery)
			h2 := openImage(t, img, opts)
			if got := h2.NumARTs(); got != shards {
				t.Fatalf("%s: %d shards, want %d", mode, got, shards)
			}
			if opts.LazyRecovery && h2.PendingShards() != shards {
				t.Fatalf("%s: %d shards pending, want %d", mode, h2.PendingShards(), shards)
			}
			assertContents(t, h2, ref, nil, mode)
			if err := h2.Check(); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
		}
	}
}

// TestLazyRecoveryCrashMidDrain: the deferred builds write nothing to PM,
// so a durable image captured with shards still pending recovers exactly
// like one captured before (or after) the drain.
func TestLazyRecoveryCrashMidDrain(t *testing.T) {
	img, ref := recoveryFixture(t, 3000)
	h := openImage(t, img, Options{LazyRecovery: true, RecoveryWorkers: 4})
	// Partially drain: touch a few shards.
	seen := 0
	for k := range ref {
		h.Get([]byte(k))
		if seen++; seen >= 10 {
			break
		}
	}
	if h.PendingShards() == 0 {
		t.Fatal("fixture too small: nothing left pending")
	}
	mid, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	h2 := openImage(t, mid, Options{RecoveryWorkers: 4})
	assertContents(t, h2, ref, nil, "reopen-mid-drain")
	if err := h2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildVisibility: concurrent readers never observe a missing key
// while Rebuild replaces the index (the replacement is built privately
// and published atomically — the old code exposed an empty directory).
func TestRebuildVisibility(t *testing.T) {
	h := newHART(t)
	const n = 500
	for i := 0; i < n; i++ {
		mustPut(t, h, fmt.Sprintf("key%04d", i), "stable")
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := []byte(fmt.Sprintf("key%04d", g*17))
			for !stop.Load() {
				if v, ok := h.Get(k); !ok || string(v) != "stable" {
					errc <- fmt.Errorf("reader lost %q mid-rebuild: (%q, %v)", k, v, ok)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if err := h.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if h.Len() != n {
		t.Fatalf("Len = %d after rebuilds, want %d", h.Len(), n)
	}
}

// TestRecoveryStatsPhases: the per-phase breakdown is populated and the
// configuration echo matches the options.
func TestRecoveryStatsPhases(t *testing.T) {
	img, ref := recoveryFixture(t, 2000)
	h := openImage(t, img, Options{RecoveryWorkers: 4})
	st := h.LastRecoveryStats()
	if st.Workers != 4 || st.Lazy || st.PendingShards != 0 {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if st.LiveLeaves != len(ref) {
		t.Fatalf("LiveLeaves = %d, want %d", st.LiveLeaves, len(ref))
	}
	if st.ScanNs <= 0 || st.BuildNs <= 0 {
		t.Fatalf("phase timings not populated: %+v", st)
	}
	lz := openImage(t, img, Options{LazyRecovery: true, RecoveryWorkers: 4})
	st = lz.LastRecoveryStats()
	if !st.Lazy || st.PendingShards == 0 || st.PendingShards != lz.PendingShards() {
		t.Fatalf("lazy echo wrong: %+v (pending now %d)", st, lz.PendingShards())
	}
}

// TestRecoveryStrayLeaves: recovery builds each shard while walking its
// allocator stripe, but must not rest on every leaf sitting there. No
// writer allocates a leaf off its shard's stripe, yet an image may hold
// one, so this store commits a third of its leaves on other stripes —
// spread over several, and for the "zz" shard every leaf — and every
// recovery mode must still find every key. Half the keys are long enough
// for a 40-byte leaf, so shards hold leaves of both classes, strays
// included, and a shard's first stray may be met in either class's walk.
func TestRecoveryStrayLeaves(t *testing.T) {
	h := newHART(t)
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%c%c%04d", 'a'+i%7, 'a'+i%5, i)
		if i%10 == 0 {
			k = fmt.Sprintf("zz%04d", i)
		}
		if i%4 >= 2 {
			k += "-in-a-40B-leaf" // 20 bytes
		}
		key, v := []byte(k), mixedValue("s%05d", i)
		stripe := epalloc.StripeFor(key[:DefaultHashKeyLen])
		if i%3 == 0 || k[:2] == "zz" {
			stripe = (stripe + 1 + i%(epalloc.NumStripes-1)) % epalloc.NumStripes
		}
		s, hk := h.lockShardW(key, true)
		s.beginWrite()
		err := h.putLocked(s, key[len(hk):], key, []byte(v), stripe)
		s.endWrite()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	img, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{RecoveryWorkers: 1},
		{RecoveryWorkers: 4},
		{RecoveryWorkers: 1, LazyRecovery: true},
		{RecoveryWorkers: 4, LazyRecovery: true},
	} {
		mode := fmt.Sprintf("workers=%d lazy=%v", opts.RecoveryWorkers, opts.LazyRecovery)
		h2 := openImage(t, img, opts)
		if got := h2.LastRecoveryStats().LiveLeaves; got != len(ref) {
			t.Fatalf("%s: LiveLeaves = %d, want %d", mode, got, len(ref))
		}
		assertContents(t, h2, ref, nil, mode)
		if err := h2.Check(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

// TestLeafClassBoundary pins the leaf class a key's length picks — a
// 24-byte leaf for a key of up to 14 bytes, a 40-byte one above — through
// a record's life: insert, updates that change its value's shape (the
// record keeps its leaf), delete and reinsert, and recovery in every mode,
// which must file each record from its class's walk. Three shards hold a
// key of every length from 1 to MaxKeyLen. Last, Check must refuse a live
// leaf whose header claims a key longer than its slot holds.
func TestLeafClassBoundary(t *testing.T) {
	h := newHART(t)
	ref := map[string]string{}
	var keys []string
	for _, p := range "abc" {
		for n := 1; n <= MaxKeyLen; n++ {
			k := fmt.Sprintf("%c%c-key-of-length-%02d-bytes", p, p, n)[:n]
			keys = append(keys, k)
			ref[k] = mixedValue("v%02d", n)
			mustPut(t, h, k, ref[k])
		}
	}
	wantClass := func(k string) epalloc.Class {
		if len(k) <= 14 {
			return classLeaf24
		}
		return classLeaf40
	}
	// checkClasses verifies every record's leaf class and the allocator's
	// per-class live counts, and returns each record's leaf.
	checkClasses := func(h *HART, mode string) map[string]pmem.Ptr {
		t.Helper()
		leaves := map[string]pmem.Ptr{}
		var used [3]int
		for k, v := range ref {
			leaf, ok := h.GetLeaf([]byte(k))
			if !ok {
				t.Fatalf("%s: no leaf for %q", mode, k)
			}
			if c, err := h.alloc.ClassOf(leaf); err != nil || c != wantClass(k) {
				t.Fatalf("%s: %d-byte key %q in class %v, want %v (err %v)", mode, len(k), k, c, wantClass(k), err)
			}
			leaves[k] = leaf
			used[wantClass(k)]++
			if len(v) > MaxInlineLen {
				used[classValue16]++
			}
		}
		st := h.Stats()
		for c, n := range used {
			if st.Alloc[c].Used != n {
				t.Fatalf("%s: class %s holds %d objects, want %d", mode, st.Alloc[c].Name, st.Alloc[c].Used, n)
			}
		}
		return leaves
	}
	leaves := checkClasses(h, "after insert")

	// Every value changes shape; every third record is deleted and put
	// back. A record keeps its leaf through an update.
	for i, k := range keys {
		v := "in-a-value-object"[:9+i%8]
		if len(ref[k]) > MaxInlineLen {
			v = v[:1+i%8]
		}
		mustPut(t, h, k, v)
		ref[k] = v
		if leaf, _ := h.GetLeaf([]byte(k)); leaf != leaves[k] {
			t.Fatalf("update of %q moved its leaf from %d to %d", k, leaves[k], leaf)
		}
		if i%3 == 0 {
			if err := h.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			mustPut(t, h, k, "again")
			ref[k] = "again"
		}
	}
	checkClasses(h, "after updates")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}

	img, err := h.Arena().DurableImage()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recoveryModes {
		h2 := openImage(t, img, m.opts)
		assertContents(t, h2, ref, nil, m.name)
		checkClasses(h2, m.name)
		if err := h2.Check(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
	}

	// A key length the slot cannot hold: Check names the leaf, and passes
	// again once the header is put back.
	for _, c := range []struct {
		key  string
		poke int
		slot int
	}{
		{keys[13], 15, leaf24Size},                     // a 14-byte key's leaf
		{keys[13], 0, leaf24Size},                      // an empty key
		{keys[MaxKeyLen-1], MaxKeyLen + 1, leaf40Size}, // a 24-byte key's leaf
	} {
		leaf := leaves[c.key]
		hdr := h.arena.Read8(leaf + lfKeyLen)
		h.arena.Write8(leaf+lfKeyLen, hdr&^0xff|uint64(c.poke))
		err := h.Check()
		want := fmt.Sprintf("leaf %d has key length %d; its %d-byte slot", leaf, c.poke, c.slot)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("key length %d poked into %q's leaf: Check err = %v, want one containing %q", c.poke, c.key, err, want)
		}
		h.arena.Write8(leaf+lfKeyLen, hdr)
		if err := h.Check(); err != nil {
			t.Fatalf("header of %q put back: %v", c.key, err)
		}
	}
}

// TestRecoveryAllocBudget holds an eager recovery's heap traffic to the
// index it builds: the bytes allocated across a Rebuild of 60 000 records
// may be at most 1.5× the DRAM the rebuilt index holds. Each leaf is one
// 16-byte record in its stripe's presized log, and the shards build from
// the logs, which are dropped once built, so nothing but the index, the
// logs and a little bookkeeping should be allocated. A lazy Rebuild of the
// same records is held to 16 B per record and a constant per shard. Not
// parallel: TotalAlloc counts every goroutine's allocations.
func TestRecoveryAllocBudget(t *testing.T) {
	const n = 60000
	h, err := New(Options{ArenaSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(38))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%c%c%08x", 'A'+rng.Intn(26), 'a'+rng.Intn(26), rng.Uint32())
		if err := h.Put([]byte(k), []byte("v8bytes!")); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := h.Rebuild(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	dram := h.Stats().Size.DRAMBytes
	t.Logf("Rebuild of %d records allocated %d B for an index of %d B (%.2f×)", h.Len(), alloc, dram, float64(alloc)/float64(dram))
	if float64(alloc) > 1.5*float64(dram) {
		t.Fatalf("Rebuild allocated %d B, over 1.5× the index's %d B", alloc, dram)
	}

	// Lazy arm: a lazy Rebuild builds no tree. It files each live leaf as
	// one 16-byte record in its stripe's log, presized, and makes each
	// shard and its directory entry.
	h.opts.LazyRecovery = true
	shards := h.NumARTs()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := h.Rebuild(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc = after.TotalAlloc - before.TotalAlloc
	t.Logf("lazy Rebuild of %d records in %d shards allocated %d B (%.1f B per record, %.1f per shard beyond 16 per record)",
		h.Len(), shards, alloc, float64(alloc)/float64(h.Len()), float64(int(alloc)-16*h.Len())/float64(shards))
	if h.PendingShards() != shards {
		t.Fatalf("lazy Rebuild left %d shards pending, want %d", h.PendingShards(), shards)
	}
	// 16 B per record plus 512 B per shard and 16 KB for the hash-key set:
	// 1 322 496 B here, which held 1 182 384. Per-shard pending lists grown
	// by append took 1 646 672.
	if bound := 16*h.Len() + 512*shards + 16<<10; alloc > uint64(bound) {
		t.Fatalf("lazy Rebuild allocated %d B, over its bound of %d", alloc, bound)
	}
}

// TestRecoveryReadsAcrossModes pins recovery to one pipeline: a store file
// opened eagerly, lazily and drained, and lazily with every key touched by
// Get, has loaded the same PM words by the time every shard is built. The
// scan loads each live leaf's header word once, and word 0 of a leaf that
// names a value object; the builds load only the tail of a key longer than
// the header word holds. Keys run from 7 to 21 bytes, and a third of the
// values live in value objects.
func TestRecoveryReadsAcrossModes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "modes.pm")
	cfg := Options{ArenaSize: 16 << 20}.ArenaConfig()
	arena, _, err := pmem.OpenFileArena(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewOnArena(arena, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("%c%c%05d", 'a'+i%6, 'a'+i/6%6, i)
		if i%3 == 1 {
			k += "-in-a-40B-leaf"
		}
		ref[k] = mixedValue("v%05d", i)
		mustPut(t, h, k, ref[k])
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// open reopens the file with opts, runs build, and returns the PM reads
	// so far, once every shard is built, and after a Get of every key.
	open := func(name string, opts Options, build func(h *HART)) (built, total int64) {
		t.Helper()
		arena, _, err := pmem.OpenFileArena(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Open(arena, opts)
		if err != nil {
			t.Fatal(err)
		}
		build(h)
		if p := h.PendingShards(); p != 0 {
			t.Fatalf("%s: %d shards pending", name, p)
		}
		built = arena.Stats().Reads
		assertContents(t, h, ref, nil, name)
		total = arena.Stats().Reads
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		return built, total
	}
	eagerBuilt, eagerTotal := open("eager", Options{RecoveryWorkers: 4}, func(*HART) {})
	t.Logf("eager Open of %d records: %d PM reads (%.3f per record)", len(ref), eagerBuilt, float64(eagerBuilt)/float64(len(ref)))
	drainBuilt, drainTotal := open("lazy+drain", Options{LazyRecovery: true, RecoveryWorkers: 4}, (*HART).DrainRecovery)
	if drainBuilt != eagerBuilt || drainTotal != eagerTotal {
		t.Errorf("lazy+drain read %d words to built and %d after the Gets; eager %d and %d", drainBuilt, drainTotal, eagerBuilt, eagerTotal)
	}
	touch := func(h *HART) {
		for k, v := range ref {
			if got, ok := h.Get([]byte(k)); !ok || string(got) != v {
				t.Fatalf("lazy+Get: Get(%q) = (%q, %v), want %q", k, got, ok, v)
			}
		}
	}
	// The touched arm's first Gets are its builds: by then it has read what
	// the eager arm has once its Gets are done.
	touchBuilt, _ := open("lazy+Get", Options{LazyRecovery: true, RecoveryWorkers: 4}, touch)
	if touchBuilt != eagerTotal {
		t.Errorf("lazy+Get read %d words after a Get of every key; eager %d", touchBuilt, eagerTotal)
	}
}

// recoveryStore makes a file-backed store of n 11-byte keys with 8-byte
// values and closes it, returning its path, arena config and keys.
func recoveryStore(b *testing.B, n int) (string, pmem.Config, [][]byte) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "recovery.pm")
	cfg := Options{ArenaSize: 64 << 20}.ArenaConfig()
	arena, _, err := pmem.OpenFileArena(path, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewOnArena(arena, Options{})
	if err != nil {
		b.Fatal(err)
	}
	keys := putAlphabetKeys(b, h, rand.New(rand.NewSource(1)), n)
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	return path, cfg, keys
}

// BenchmarkLazyOpen times a lazy Open of a file-backed store of 250 000
// records up to its first read, the cycle the restart workload's
// lat_p50_us times, and reports it per live leaf: the lazy scan loads
// every live leaf's header word, so the time grows with the store. Each
// iteration's drain and Close run off the clock.
func BenchmarkLazyOpen(b *testing.B) {
	const records = 250_000
	path, cfg, keys := recoveryStore(b, records)
	rng := rand.New(rand.NewSource(1))
	opts := Options{LazyRecovery: true, RecoveryWorkers: runtime.NumCPU()}
	val := make([]byte, 0, MaxValueLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := keys[rng.Intn(records)]
		runtime.GC()
		b.StartTimer()
		arena, _, err := pmem.OpenFileArena(path, cfg)
		if err != nil {
			b.Fatal(err)
		}
		h, err := Open(arena, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := h.GetInto(k, val); !ok {
			b.Fatalf("key %q missing", k)
		}
		b.StopTimer()
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/leaf")
}

// BenchmarkRecovery times a whole recovery of the file-backed store
// BenchmarkLazyOpen opens, 250 000 records, in ns and PM reads per live
// leaf: eager is an Open that builds every shard before it publishes, and
// lazy-drained a lazy Open followed by DrainRecovery, which runs the same
// builds after it. Both read the same words; compare their times in
// alternating runs. Each iteration's Close runs off the clock.
func BenchmarkRecovery(b *testing.B) {
	const records = 250_000
	path, cfg, _ := recoveryStore(b, records)
	for _, arm := range []struct {
		name string
		opts Options
	}{
		{"eager", Options{RecoveryWorkers: runtime.NumCPU()}},
		{"lazy-drained", Options{LazyRecovery: true, RecoveryWorkers: runtime.NumCPU()}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var reads int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				arena, _, err := pmem.OpenFileArena(path, cfg)
				if err != nil {
					b.Fatal(err)
				}
				h, err := Open(arena, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				h.DrainRecovery()
				b.StopTimer()
				reads += arena.Stats().Reads
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/leaf")
			b.ReportMetric(float64(reads)/float64(b.N*records), "reads/leaf")
		})
	}
}
