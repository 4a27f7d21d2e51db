package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/casl-sdsu/hart/internal/pmem"
)

// reopenCrash takes h's durable image, as a crash would leave it, and
// recovers it into a new instance.
func reopenCrash(t *testing.T, h *HART, opts Options) *HART {
	t.Helper()
	img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h2
}

// checkStore verifies that h holds exactly want: every directory entry is
// at most kh bytes, every record reads back, a full scan sees each key once
// in ascending order, and Check is clean.
func checkStore(t *testing.T, h *HART, want map[string]string) {
	t.Helper()
	h.dir.Load().Range(func(ek []byte, _ *artShard) bool {
		if len(ek) > h.opts.HashKeyLen {
			t.Fatalf("directory entry %q is longer than kh = %d", ek, h.opts.HashKeyLen)
		}
		return true
	})
	for k, v := range want {
		mustGet(t, h, k, v)
	}
	got := h.Keys()
	if len(got) != len(want) {
		t.Fatalf("Scan saw %d keys, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("scan out of order: %q >= %q", got[i-1], got[i])
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// elasticEraSplitsOff is where builds that had an elastic directory kept
// their split prefixes: one 8-byte slot each from superblock offset +96,
// up to the end of the label area, with the count at +40.
const elasticEraSplitsOff = 96

// writeElasticEraSplits writes a split-prefix table into h's superblock as
// those builds laid it out: each slot word holds the prefix length in
// byte 0 and the prefix in the bytes after it, little-endian.
func writeElasticEraSplits(h *HART, count uint64, prefixes []string) {
	a := h.Arena()
	for i, p := range prefixes {
		w := uint64(len(p))
		for j := 0; j < len(p); j++ {
			w |= uint64(p[j]) << (8 * uint(j+1))
		}
		a.Write8(sbBase+elasticEraSplitsOff+pmem.Ptr(8*i), w)
	}
	a.Write8(sbBase+sbOffReserved, count)
	a.Persist(sbBase, int(pmem.LabelSize))
}

// loadElasticEraKeys fills a fresh store with keys that extend the
// prefixes "ab", "abc" and "abcd" — where an elastic directory split a
// hot shard, leaving the key equal to the prefix behind — plus a key
// shorter than kh and a shard nobody split, with values of both shapes.
func loadElasticEraKeys(t *testing.T) (*HART, map[string]string) {
	t.Helper()
	keys := []string{"a", "ab", "abc", "abcd", "zz", "zz1"}
	for _, b := range "cdeX" {
		for i := 0; i < 12; i++ {
			keys = append(keys, fmt.Sprintf("ab%c%02d", b, i))
		}
	}
	for i := 0; i < 12; i++ {
		keys = append(keys, fmt.Sprintf("abcd%02d", i))
	}
	h := newHART(t)
	vals := make(map[string]string, len(keys))
	for i, k := range keys {
		vals[k] = mixedValue("val-%03d", i)
		mustPut(t, h, k, vals[k])
	}
	return h, vals
}

// TestElasticReopen opens the images builds with an elastic directory
// could leave behind: the same format version, with split prefixes in
// bytes this build reserves. Open ignores them and groups every leaf on
// its key's first kh bytes, under eager, parallel and lazy recovery, and
// the store then keeps working through Put, Delete, Close and a reopen.
// "elastic-off" is this build's own image, which must read 0 at +40 so
// that those builds find no split prefixes in it.
func TestElasticReopen(t *testing.T) {
	for _, mode := range []struct {
		name   string
		splits bool
		opts   Options
	}{
		{"elastic-off", false, Options{}},
		{"elastic-on", true, Options{}},
		{"parallel", true, Options{RecoveryWorkers: 4}},
		{"lazy", true, Options{LazyRecovery: true, RecoveryWorkers: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h, vals := loadElasticEraKeys(t)
			if w := h.Arena().Read8(sbBase + sbOffReserved); w != 0 {
				t.Fatalf("a new store holds %#x at superblock +40, want 0", w)
			}
			if mode.splits {
				writeElasticEraSplits(h, 3, []string{"ab", "abc", "abcd"})
			}
			h2 := reopenCrash(t, h, mode.opts)
			if mode.opts.LazyRecovery && h2.PendingShards() == 0 {
				t.Fatal("lazy reopen left no shard pending")
			}
			checkStore(t, h2, vals)

			mustPut(t, h2, "abcz", "new")
			mustPut(t, h2, "ab", "updated-value")
			for _, k := range []string{"abc", "abcd05", "a"} {
				if err := h2.Delete([]byte(k)); err != nil {
					t.Fatalf("Delete(%q): %v", k, err)
				}
				delete(vals, k)
			}
			vals["abcz"], vals["ab"] = "new", "updated-value"
			checkStore(t, h2, vals)
			if err := h2.Close(); err != nil {
				t.Fatal(err)
			}

			h3 := reopenCrash(t, h2, Options{})
			if !h3.LastRecoveryStats().WasClean {
				t.Fatal("reopen after Close not reported clean")
			}
			checkStore(t, h3, vals)
		})
	}
}

// TestElasticSplitSlotCapacity opens an image whose split area is full
// and whose count word lies beyond it, which builds with an elastic
// directory refused: this build reads neither, so the image opens and
// every record comes back.
func TestElasticSplitSlotCapacity(t *testing.T) {
	h, vals := loadElasticEraKeys(t)
	slots := make([]string, (pmem.LabelSize-elasticEraSplitsOff)/8)
	for i := range slots {
		slots[i] = fmt.Sprintf("ab%c", 'A'+i)
	}
	writeElasticEraSplits(h, 1<<40, slots)
	checkStore(t, reopenCrash(t, h, Options{}), vals)
}

// TestDirectoryBytesMatchHeap creates the benchmark's 3 844 two-byte
// shards on an empty store and holds the DRAM accounting to the runtime:
// the heap growth must match what Stats adds to Size.DRAMBytes — the
// directory's share (its pages and nodes, one shard struct per entry) and
// each shard's empty tree — within 10 %.
func TestDirectoryBytesMatchHeap(t *testing.T) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	if dirEntryCost != 64 {
		t.Fatalf("a shard struct is %d B, want one 64-byte line", dirEntryCost)
	}
	h := newHART(t)
	var before, after runtime.MemStats
	st0 := h.Stats()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < len(alphabet); i++ {
		for j := 0; j < len(alphabet); j++ {
			h.getShard([]byte{alphabet[i], alphabet[j]}, true)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := h.Stats()
	if st.ARTs != len(alphabet)*len(alphabet) {
		t.Fatalf("%d shards, want %d", st.ARTs, len(alphabet)*len(alphabet))
	}
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	counted := st.Size.DRAMBytes - st0.Size.DRAMBytes
	t.Logf("heap +%d B, counted +%d B (directory %d B, of which the table %d B; empty trees %d B)",
		held, counted, counted-st.ART.Bytes, h.dir.Load().DRAMBytes(), st.ART.Bytes)
	if d := float64(counted-held) / float64(held); d < -0.10 || d > 0.10 {
		t.Fatalf("Stats counts %d B for %d B of heap (%+.1f %%)", counted, held, 100*d)
	}
	runtime.KeepAlive(h)
}

// TestStatsHotShards verifies the per-shard write counts Stats exports:
// Put, Update and PutBatch records count, the list is ranked by them and
// holds at most eight shards.
func TestStatsHotShards(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 40; i++ {
		mustPut(t, h, fmt.Sprintf("hh%03d", i), "v")
	}
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, Record{Key: []byte(fmt.Sprintf("pb%03d", i)), Value: []byte("b")})
	}
	if _, err := h.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	mustPut(t, h, "zz000", "v")
	for i := 0; i < 2; i++ {
		if err := h.Update([]byte("zz000"), []byte("u")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mustPut(t, h, fmt.Sprintf("%c%c", 'A'+i, 'A'+i), "v")
	}

	st := h.Stats()
	if st.Dir.Entries != h.NumARTs() || st.Dir.Entries != 13 {
		t.Fatalf("Dir.Entries = %d, NumARTs = %d, want 13", st.Dir.Entries, h.NumARTs())
	}
	if len(st.Dir.Hot) != 8 {
		t.Fatalf("Hot list has %d entries, want 8", len(st.Dir.Hot))
	}
	for i, want := range []HotShard{
		{Prefix: "hh", Ops: 40, Records: 40},
		{Prefix: "pb", Ops: 5, Records: 5},
		{Prefix: "zz", Ops: 3, Records: 1},
	} {
		if got := st.Dir.Hot[i]; got != want {
			t.Fatalf("Hot[%d] = %+v, want %+v", i, got, want)
		}
	}
}

// TestShardConcurrentChurn races shard creation and removal against every
// operation: four writers share the 2-byte prefixes "hh", "hi" and "hj" —
// two writers to a prefix, the pairs rotating each round — and delete
// every record they wrote there before moving on, so shards empty, leave
// the directory and come back while Put, PutBatch, Delete, Get, Scan and
// ScanReverse run on them. The short key "h", a proper prefix of all
// three entries, is rewritten throughout, so scans step into those
// entries while they churn. One record per round survives in each
// writer's own shard. At the end the contents must be exact, Check clean,
// scans and point lookups in agreement, and a reopen must find the same.
func TestShardConcurrentChurn(t *testing.T) {
	h := newHART(t)
	prefixes := []string{"hh", "hi", "hj"}
	const workers, rounds, per = 4, 40, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := byte('A' + w)
			for r := 0; r < rounds; r++ {
				p := prefixes[(w/2+r)%len(prefixes)]
				key := func(i int) []byte { return []byte(fmt.Sprintf("%s%c%02d%02d", p, tag, r, i)) }
				for i := 0; i < per/2; i++ {
					if err := h.Put(key(i), []byte(mixedValue("put-%02d", i))); err != nil {
						t.Error(err)
						return
					}
				}
				var recs []Record
				for i := per / 2; i < per; i++ {
					recs = append(recs, Record{Key: key(i), Value: []byte(mixedValue("batch-%02d", i))})
				}
				if _, err := h.PutBatch(recs); err != nil {
					t.Error(err)
					return
				}
				if err := h.Put([]byte("h"), []byte{tag}); err != nil {
					t.Error(err)
					return
				}
				if err := h.Put([]byte(fmt.Sprintf("s%c%03d", tag, r)), []byte("keep")); err != nil {
					t.Error(err)
					return
				}
				if v, ok := h.Get(key(0)); !ok || string(v) != mixedValue("put-%02d", 0) {
					t.Errorf("Get(%q) = %q, %v before its delete", key(0), v, ok)
					return
				}
				var prev []byte
				h.Scan(nil, nil, func(k, _ []byte) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Errorf("Scan out of order: %q then %q", prev, k)
					}
					prev = k
					return true
				})
				prev = nil
				h.ScanReverse(nil, nil, func(k, _ []byte) bool {
					if prev != nil && bytes.Compare(prev, k) <= 0 {
						t.Errorf("ScanReverse out of order: %q then %q", prev, k)
					}
					prev = k
					return true
				})
				for i := 0; i < per; i++ {
					if err := h.Delete(key(i)); err != nil {
						t.Errorf("Delete(%q): %v", key(i), err)
						return
					}
				}
				if _, ok := h.Get(key(per - 1)); ok {
					t.Errorf("Get(%q) hit after its delete", key(per-1))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The last writer out of each shared prefix emptied its shard.
	for _, p := range prefixes {
		if _, ok := h.dir.Load().Get([]byte(p)); ok {
			t.Fatalf("shard %q still in the directory after every record in it was deleted", p)
		}
	}
	// Shards were created and removed, not only at the end: more
	// publications than one creation per hash key plus the final removals.
	hashKeys := len(prefixes) + workers + 1
	if n := h.obs.dirPublish.Value(); n <= uint64(hashKeys+len(prefixes)) {
		t.Fatalf("%d directory publications: no shard was emptied and re-created during the run", n)
	}

	want := map[string]string{}
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			want[fmt.Sprintf("s%c%03d", 'A'+w, r)] = "keep"
		}
	}
	v, ok := h.Get([]byte("h"))
	if !ok {
		t.Fatal(`short key "h" lost`)
	}
	want["h"] = string(v)
	checkStore(t, h, want)
	n := 0
	h.Scan(nil, nil, func(k, _ []byte) bool {
		n++
		if _, ok := h.Get(k); !ok {
			t.Fatalf("scanned key %q not gettable", k)
		}
		return true
	})
	if n != h.Len() {
		t.Fatalf("scan saw %d records, Len says %d", n, h.Len())
	}
	checkStore(t, reopenCrash(t, h, Options{}), want)
}
