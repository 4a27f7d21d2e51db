package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/casl-sdsu/hart/internal/pmem"
)

func newElastic(t *testing.T, splitOps, mergeRecords int) *HART {
	t.Helper()
	h, err := New(Options{
		ArenaSize:        16 << 20,
		Tracking:         true,
		ElasticDirectory: true,
		SplitOps:         splitOps,
		MergeRecords:     mergeRecords,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// reopen crashes h and recovers the image into a new instance.
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

// hotKeys returns the residual key "ab" plus fan keys "ab<b><i>" over the
// given next bytes — a workload concentrated on one base shard.
func hotKeys(fan string, per int) []string {
	keys := []string{"ab"}
	for _, b := range fan {
		for i := 0; i < per; i++ {
			keys = append(keys, fmt.Sprintf("ab%c%02d", b, i))
		}
	}
	return keys
}

func checkAll(t *testing.T, h *HART, keys []string, val func(k string) string) {
	t.Helper()
	for _, k := range keys {
		mustGet(t, h, k, val(k))
	}
	got := h.Keys()
	if len(got) != len(keys) {
		t.Fatalf("Scan saw %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if string(got[i-1]) >= string(got[i]) {
			t.Fatalf("scan out of order: %q >= %q", got[i-1], got[i])
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticSplitBasic drives one shard hot, expects it to split into a
// residual plus per-byte children, and verifies lookups, ordered scans,
// fsck and the exported geometry stats.
func TestElasticSplitBasic(t *testing.T) {
	h := newElastic(t, 16, 4)
	keys := hotKeys("cd", 10) // "ab" + ab{c,d}00..09
	for _, k := range keys {
		mustPut(t, h, k, "v"+k)
	}
	if h.splitCount.Load() == 0 {
		t.Fatal("no split after 21 writes to one shard with SplitOps=16")
	}
	st := h.Stats()
	if st.Dir.Splits != 1 || st.Dir.MaxDepth != 3 || st.Dir.BaseDepth != 2 {
		t.Fatalf("Dir = %+v, want 1 split, depth 2..3", st.Dir)
	}
	// The split must leave the directory with the residual and exactly
	// the two children: entries ab, abc, abd.
	for _, want := range []string{"ab", "abc", "abd"} {
		if _, ok := h.dir.Load().tab.Get([]byte(want)); !ok {
			t.Fatalf("entry %q missing after split", want)
		}
	}
	checkAll(t, h, keys, func(k string) string { return "v" + k })

	// Writes continue to land correctly post-split (routing through the
	// deeper geometry), including a new next-byte group.
	mustPut(t, h, "abe00", "v-abe00")
	mustGet(t, h, "abe00", "v-abe00")
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticSplitRefusals pins the refusal edges: a single next-byte
// group only relabels (refused), and a one-record shard is never split.
func TestElasticSplitRefusals(t *testing.T) {
	h := newElastic(t, 8, 4)
	// All records share next byte 'c': groups < 2, refused forever.
	for i := 0; i < 100; i++ {
		mustPut(t, h, fmt.Sprintf("abc%02d", i%20), "v")
	}
	if n := h.splitCount.Load(); n != 0 {
		t.Fatalf("single-branch shard split %d times", n)
	}
	if st := h.Stats(); st.Dir.MaxDepth != 2 || st.Dir.Splits != 0 {
		t.Fatalf("Dir = %+v, want flat", st.Dir)
	}
	// A hot single-record shard is refused too.
	for i := 0; i < 50; i++ {
		mustPut(t, h, "zz", "v")
	}
	if n := h.splitCount.Load(); n != 0 {
		t.Fatalf("one-record shard split %d times", n)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticSplitMaxDepth cascades splits down a two-way branching key
// set and verifies the depth cap: no entry ever exceeds maxDirDepth
// bytes, and the store stays correct throughout.
func TestElasticSplitMaxDepth(t *testing.T) {
	h := newElastic(t, 4, 2)
	// {a,b}^9: branching at every byte, so every shard that gets hot can
	// split until the cap.
	var keys []string
	for i := 0; i < 1<<9; i++ {
		b := make([]byte, 9)
		for j := range b {
			b[j] = 'a' + byte((i>>j)&1)
		}
		keys = append(keys, string(b))
	}
	for pass := 0; pass < 4; pass++ {
		for _, k := range keys {
			mustPut(t, h, k, "v")
		}
	}
	st := h.Stats()
	if st.Dir.MaxDepth > maxDirDepth {
		t.Fatalf("MaxDepth %d exceeds cap %d", st.Dir.MaxDepth, maxDirDepth)
	}
	for _, ek := range h.dir.Load().tab.SortedKeys() {
		if len(ek) > maxDirDepth {
			t.Fatalf("entry %q longer than maxDirDepth", ek)
		}
	}
	if h.splitCount.Load() == 0 {
		t.Fatal("no splits under a cascading workload")
	}
	checkAll(t, h, keys, func(string) string { return "v" })
}

// TestElasticSplitSlotCapacity exhausts the superblock's split slots:
// geometry changes stop at the cap, correctness does not.
func TestElasticSplitSlotCapacity(t *testing.T) {
	h := newElastic(t, 4, 2)
	// Many independent hot base shards, each splittable.
	var keys []string
	for p := 0; p < 2*int(sbMaxSplits); p++ {
		pre := fmt.Sprintf("%c%c", 'A'+p%26, 'A'+p/26)
		for i := 0; i < 8; i++ {
			keys = append(keys, fmt.Sprintf("%s%c%d", pre, 'a'+i%4, i))
		}
	}
	for pass := 0; pass < 3; pass++ {
		for _, k := range keys {
			mustPut(t, h, k, "v")
		}
	}
	st := h.Stats()
	if st.Dir.Splits > int(sbMaxSplits) {
		t.Fatalf("%d persisted splits exceed the %d slots", st.Dir.Splits, sbMaxSplits)
	}
	if st.Dir.Splits != int(sbMaxSplits) {
		t.Fatalf("expected the slot table to fill, got %d/%d", st.Dir.Splits, sbMaxSplits)
	}
	checkAll(t, h, keys, func(string) string { return "v" })
	// And the full table survives a reopen.
	h2 := reopenCrash(t, h, Options{ElasticDirectory: true, SplitOps: 4, MergeRecords: 2})
	if st2 := h2.Stats(); st2.Dir.Splits != st.Dir.Splits {
		t.Fatalf("reopen lost splits: %d -> %d", st.Dir.Splits, st2.Dir.Splits)
	}
	checkAll(t, h2, keys, func(string) string { return "v" })
}

// TestElasticMergeUnevenSiblings splits a shard, then deletes one child
// entirely and most of the other: the cold, shrunken group must fold
// back to the base shape, residual record intact.
func TestElasticMergeUnevenSiblings(t *testing.T) {
	h := newElastic(t, 16, 8)
	keys := hotKeys("cd", 10)
	for _, k := range keys {
		mustPut(t, h, k, "v"+k)
	}
	if h.splitCount.Load() == 0 {
		t.Fatal("precondition: no split")
	}
	// Delete all of abd* and most of abc*: group total falls to 4
	// (residual "ab" + abc00..02) <= MergeRecords.
	var left []string
	for _, k := range keys {
		if k == "ab" || k < "abc03" && k != "ab" {
			left = append(left, k)
			continue
		}
		if err := h.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	if h.mergeCount.Load() == 0 {
		t.Fatal("no merge after shrinking the split group")
	}
	st := h.Stats()
	if st.Dir.Splits != 0 || st.Dir.MaxDepth != 2 {
		t.Fatalf("Dir = %+v, want merged flat", st.Dir)
	}
	checkAll(t, h, left, func(k string) string { return "v" + k })
	// The merged entry is a normal shard again: it can re-split.
	for pass := 0; pass < 8; pass++ {
		for _, k := range left {
			mustPut(t, h, k, "w"+k)
		}
	}
	if h.splitCount.Load() < 2 {
		t.Fatal("merged shard did not re-split under heat")
	}
	checkAll(t, h, left, func(k string) string { return "w" + k })
}

// TestElasticMergeToEmpty deletes a split group completely: the merge
// must drop the split without creating an empty entry.
func TestElasticMergeToEmpty(t *testing.T) {
	h := newElastic(t, 16, 8)
	keys := hotKeys("cd", 10)
	for _, k := range keys {
		mustPut(t, h, k, "v")
	}
	if h.splitCount.Load() == 0 {
		t.Fatal("precondition: no split")
	}
	for _, k := range keys {
		if err := h.Delete([]byte(k)); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	st := h.Stats()
	if st.Dir.Splits != 0 {
		t.Fatalf("empty store still has %d splits", st.Dir.Splits)
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticReopen covers the acceptance reopen matrix: a pre-split
// store opens under a split-capable config; a split store reopens with
// the same geometry whether the flag stays on or turns off; and the
// lazy + parallel recovery modes rebuild variable-depth tables.
func TestElasticReopen(t *testing.T) {
	keys := hotKeys("cde", 12)
	val := func(k string) string { return "v" + k }

	// Pre-split store (elastic off) reopens fine with elastic on.
	plain := newHART(t)
	for _, k := range keys {
		mustPut(t, plain, k, val(k))
	}
	h := reopenCrash(t, plain, Options{ElasticDirectory: true, SplitOps: 16, MergeRecords: 4})
	checkAll(t, h, keys, val)
	// ... and then splits under fresh heat.
	for _, k := range keys {
		mustPut(t, h, k, val(k))
	}
	if h.splitCount.Load() == 0 {
		t.Fatal("reopened store did not split under heat")
	}
	preSplits := h.Stats().Dir.Splits
	if preSplits == 0 {
		t.Fatal("split not reflected in stats")
	}

	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"elastic-on", Options{ElasticDirectory: true, SplitOps: 16, MergeRecords: 4}},
		{"elastic-off", Options{}},
		{"lazy", Options{LazyRecovery: true, RecoveryWorkers: 4}},
		{"parallel", Options{RecoveryWorkers: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			h2 := reopenCrash(t, h, mode.opts)
			st := h2.Stats()
			if st.Dir.Splits != preSplits {
				t.Fatalf("splits %d -> %d across reopen", preSplits, st.Dir.Splits)
			}
			if st.Dir.MaxDepth != 3 {
				t.Fatalf("MaxDepth = %d, want 3", st.Dir.MaxDepth)
			}
			checkAll(t, h2, keys, val)
		})
	}
}

// TestElasticStatsHeat verifies the per-shard heat/op export.
func TestElasticStatsHeat(t *testing.T) {
	h := newElastic(t, 1<<30, 4) // threshold out of reach: no splits
	for i := 0; i < 40; i++ {
		mustPut(t, h, fmt.Sprintf("hh%03d", i), "v")
	}
	mustPut(t, h, "zz000", "v")
	st := h.Stats()
	if len(st.Dir.Hot) == 0 {
		t.Fatal("no heat exported")
	}
	top := st.Dir.Hot[0]
	if top.Prefix != "hh" || top.Heat != 40 || top.Ops != 40 || top.Records != 40 {
		t.Fatalf("hottest = %+v, want hh/40", top)
	}
	if len(st.Dir.Hot) > 8 {
		t.Fatalf("Hot list %d entries, want <= 8", len(st.Dir.Hot))
	}
}

// TestElasticConcurrentChurn races splits and merges against concurrent
// Put, PutBatch, Get, Delete and both scan directions under -race, then
// verifies the surviving contents exactly.
func TestElasticConcurrentChurn(t *testing.T) {
	h := newElastic(t, 32, 8)
	const workers = 4
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			key := func(i int) []byte {
				// Shared hot prefix "hh" + worker-disjoint suffix.
				return []byte(fmt.Sprintf("hh%c%c%03d", 'a'+byte(rng.Intn(3)), 'A'+byte(w), i))
			}
			for i := 0; i < perWorker; i++ {
				switch i % 5 {
				case 0, 1, 2:
					if err := h.Put(key(i), []byte("v")); err != nil {
						t.Error(err)
						return
					}
				case 3:
					var recs []Record
					for j := 0; j < 8; j++ {
						recs = append(recs, Record{Key: key(1000 + i*8 + j), Value: []byte("b")})
					}
					if _, err := h.PutBatch(recs); err != nil {
						t.Error(err)
						return
					}
				case 4:
					// Delete a key this worker inserted earlier (may or may
					// not exist depending on rng collisions — both fine).
					_ = h.Delete(key(i - 4))
				}
				if i%50 == 0 {
					h.Scan(nil, nil, func(_, _ []byte) bool { return true })
					h.ScanReverse(nil, nil, func(_, _ []byte) bool { return true })
					h.Get(key(i / 2))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	// Scan and point lookups agree on the final contents.
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
	// The hot prefix must actually have split under this workload.
	if h.splitCount.Load() == 0 {
		t.Fatal("no split happened during the churn")
	}
	// Survives a reopen with the churned geometry.
	h2 := reopenCrash(t, h, Options{ElasticDirectory: true, SplitOps: 32, MergeRecords: 8})
	if h2.Len() != h.Len() {
		t.Fatalf("reopen Len %d != %d", h2.Len(), h.Len())
	}
	if err := h2.Check(); err != nil {
		t.Fatal(err)
	}
}
