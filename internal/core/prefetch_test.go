package core

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/casl-sdsu/hart/internal/cachesim"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// prefetchProbes returns n keys drawn from stored, from absent keys under
// stored hash keys and new ones, and from keys no operation accepts.
func prefetchProbes(rng *rand.Rand, stored []string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		switch r := rng.Intn(10); {
		case r < 6 && len(stored) > 0:
			keys[i] = []byte(stored[rng.Intn(len(stored))])
		case r < 8:
			keys[i] = []byte(fmt.Sprintf("%c%c-miss-%d", 'a'+rng.Intn(26), 'a'+rng.Intn(26), rng.Intn(1000)))
		case r < 9:
			keys[i] = []byte{byte(rng.Intn(256))}
		default:
			keys[i] = make([]byte, rng.Intn(2)*(MaxKeyLen+1)) // empty or too long
		}
	}
	return keys
}

// loadPending fills a store with n records over many shards, then reopens
// it lazily, so every shard is pending its first-touch build.
func loadPending(t *testing.T, n int) (*HART, []string) {
	t.Helper()
	h := newHART(t)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%c-%05d", 'a'+i%26, i)
		mustPut(t, h, keys[i], mixedValue("v%05d", i))
	}
	h2 := reopenCrash(t, h, Options{LazyRecovery: true})
	if h2.PendingShards() == 0 {
		t.Fatal("lazy reopen left no shard pending")
	}
	return h2, keys
}

// TestPrefetchConcurrentChurn runs two goroutines prefetching random keys
// beside four writers that create shards with Put and empty them with
// Delete, so the walks meet shards as they join and leave the directory
// and trees as they are republished. The lazy case starts from a store
// whose shards are all pending and has the writers build them as it goes.
// Run it under -race: Prefetch takes no lock, so any unsynchronised load
// of a published structure shows up here.
func TestPrefetchConcurrentChurn(t *testing.T) {
	t.Run("live", func(t *testing.T) { prefetchChurn(t, newHART(t), nil) })
	t.Run("lazy", func(t *testing.T) {
		h, stored := loadPending(t, 2000)
		prefetchChurn(t, h, stored)
		for i, k := range stored {
			mustGet(t, h, k, mixedValue("v%05d", i))
		}
	})
}

func prefetchChurn(t *testing.T, h *HART, stored []string) {
	prefixes := []string{"hh", "hi", "hj"}
	const writers, readers, rounds, per = 4, 2, 40, 6
	var wg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pool := append([]string{"h"}, stored...)
			for _, p := range prefixes {
				for i := 0; i < per; i++ {
					pool = append(pool, fmt.Sprintf("%sA%02d%02d", p, rng.Intn(rounds), i))
				}
			}
			for !done.Load() {
				h.Prefetch(prefetchProbes(rng, pool, 1+rng.Intn(100)))
			}
		}(int64(r))
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			tag := byte('A' + w)
			for r := 0; r < rounds; r++ {
				p := prefixes[(w/2+r)%len(prefixes)]
				key := func(i int) []byte { return []byte(fmt.Sprintf("%s%c%02d%02d", p, tag, r, i)) }
				for i := 0; i < per; i++ {
					if err := h.Put(key(i), []byte(mixedValue("put-%02d", i))); err != nil {
						t.Error(err)
						return
					}
				}
				if len(stored) > 0 {
					k := []byte(stored[(w*rounds+r)%len(stored)] + "+")
					if err := h.Put(k, []byte{tag}); err != nil {
						t.Error(err)
						return
					}
					if err := h.Delete(k); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < per; i++ {
					if err := h.Delete(key(i)); err != nil {
						t.Errorf("Delete(%q): %v", key(i), err)
						return
					}
				}
			}
		}(w)
	}
	writersWG.Wait()
	done.Store(true)
	wg.Wait()
	for _, p := range prefixes {
		if _, ok := h.dir.Load().Get([]byte(p)); ok {
			t.Fatalf("shard %q still in the directory after every record in it was deleted", p)
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchCountsNothing: a Prefetch of 10 k keys leaves every counter
// where it was, PM reads included, and builds no pending shard. On an
// arena that emulates PM latency through a cache model, the hints it gives
// the leaf lines of its hits are not accesses either: the latency clock
// charges nothing and the model caches none of those lines, so the loads
// that follow pay what they would have paid without the Prefetch.
func TestPrefetchCountsNothing(t *testing.T) {
	storeOf := func(h *HART) []string {
		var stored []string
		for i := 0; i < 3000; i++ {
			stored = append(stored, fmt.Sprintf("%c%c-%05d", 'a'+i%26, 'a'+i/26%26, i))
			mustPut(t, h, stored[i], mixedValue("v%05d", i))
		}
		return stored
	}
	live := newHART(t)
	cache := cachesim.Default()
	arena, err := pmem.New(pmem.Config{Size: 16 << 20, Latency: latency.Config300x300(), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	emulated, err := NewOnArena(arena, Options{Latency: latency.Config300x300()})
	if err != nil {
		t.Fatal(err)
	}
	lazy, lazyKeys := loadPending(t, 3000)
	for _, c := range []struct {
		name   string
		h      *HART
		stored []string
	}{{"live", live, storeOf(live)}, {"emulated", emulated, storeOf(emulated)}, {"lazy", lazy, lazyKeys}} {
		keys := prefetchProbes(rand.New(rand.NewSource(1)), c.stored, 10_000)
		if c.h == emulated {
			// Persists evict what they flush: a read of every other
			// record brings its leaf line back into the model.
			for i := 0; i < len(c.stored); i += 2 {
				mustGet(t, c.h, c.stored[i], mixedValue("v%05d", i))
			}
		}
		// The leaf line of every hit, and whether the model holds it.
		var lines []pmem.Ptr
		var cached []bool
		for _, k := range keys {
			if len(k) > 0 && len(k) <= MaxKeyLen {
				if p := leafAt(c.h, k); !p.IsNil() {
					lines = append(lines, p)
					cached = append(cached, cache.Contains(uint64(p)))
				}
			}
		}
		before, pending, clock := c.h.Metrics().Counters, c.h.PendingShards(), c.h.Arena().Clock().Snapshot()
		c.h.Prefetch(keys)
		if after := c.h.Metrics().Counters; !maps.Equal(before, after) {
			for k, v := range after {
				if before[k] != v {
					t.Errorf("%s: counter %s moved %d → %d", c.name, k, before[k], v)
				}
			}
			t.Fatalf("%s: Prefetch moved a counter", c.name)
		}
		if got := c.h.PendingShards(); got != pending {
			t.Fatalf("%s: pending shards %d → %d", c.name, pending, got)
		}
		if got := c.h.Arena().Clock().Snapshot(); got != clock {
			t.Fatalf("%s: latency clock %+v → %+v", c.name, clock, got)
		}
		if c.h != emulated {
			continue
		}
		uncached := 0
		for i, p := range lines {
			if !cached[i] {
				uncached++
			}
			if got := cache.Contains(uint64(p)); got != cached[i] {
				t.Fatalf("%s: leaf line of %d: cached %v → %v", c.name, p, cached[i], got)
			}
		}
		if uncached == 0 || uncached == len(lines) {
			t.Fatalf("%s: %d of %d hinted leaf lines were out of the cache model; want some of each", c.name, uncached, len(lines))
		}
	}
}

// TestPrefetchAllocatesNothing: the three stages keep their state on the
// stack, however many windows the keys take.
func TestPrefetchAllocatesNothing(t *testing.T) {
	h := newHART(t)
	var stored []string
	for i := 0; i < 500; i++ {
		stored = append(stored, fmt.Sprintf("%c%c-%03d", 'a'+i%26, 'a'+i/26%26, i))
		mustPut(t, h, stored[i], "v")
	}
	keys := prefetchProbes(rand.New(rand.NewSource(2)), stored, 200)
	if n := testing.AllocsPerRun(50, func() { h.Prefetch(keys) }); n != 0 {
		t.Fatalf("Prefetch allocates %.1f times per call", n)
	}
}

// putAlphabetKeys stores n random 11-byte keys over the paper's
// 62-character alphabet in h with PutBatch, 256 records a batch, and
// returns them.
func putAlphabetKeys(tb testing.TB, h *HART, rng *rand.Rand, n int) [][]byte {
	const alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	keys := make([][]byte, n)
	recs := make([]Record, 0, 256)
	for i := range keys {
		k := make([]byte, 11)
		for j := range k {
			k[j] = alphabet[rng.Intn(len(alphabet))]
		}
		keys[i] = k
		if recs = append(recs, Record{Key: k, Value: []byte("value-08")}); len(recs) == cap(recs) || i == n-1 {
			if _, err := h.PutBatch(recs); err != nil {
				tb.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	return keys
}

// BenchmarkGetBurst looks up bursts of 64 random present keys over a
// 250 k-record store, the shape of a pipelined wire burst: one GetInto per
// key (serial), or one Prefetch of the burst first (prefetched); ns/get is
// the whole burst's time over its 64 keys. The walk case runs the Prefetch
// alone, in ns/key: the part of prefetched that is not GetInto.
func BenchmarkGetBurst(b *testing.B) {
	const records, burst, bursts = 250_000, 64, 4096
	h, err := New(Options{ArenaSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rng := rand.New(rand.NewSource(1))
	keys := putAlphabetKeys(b, h, rng, records)
	windows := make([][][]byte, bursts)
	for i := range windows {
		windows[i] = make([][]byte, burst)
		for j := range windows[i] {
			windows[i][j] = keys[rng.Intn(records)]
		}
	}
	for _, c := range []struct {
		name, unit    string
		prefetch, get bool
	}{
		{"serial", "ns/get", false, true},
		{"prefetched", "ns/get", true, true},
		{"walk", "ns/key", true, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			val := make([]byte, 0, MaxValueLen)
			for i := 0; i < b.N; i++ {
				w := windows[i%bursts]
				if c.prefetch {
					h.Prefetch(w)
				}
				if !c.get {
					continue
				}
				for _, k := range w {
					if _, ok := h.GetInto(k, val); !ok {
						b.Fatalf("key %q missing", k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), c.unit)
		})
	}
}
