package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmem"
)

func TestMetricsCounters(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 100; i++ {
		mustPut(t, h, fmt.Sprintf("mc%04d", i), "v1")
	}
	for i := 0; i < 50; i++ {
		mustPut(t, h, fmt.Sprintf("mc%04d", i), "v2") // updates
	}
	for i := 0; i < 30; i++ {
		if _, ok := h.Get([]byte(fmt.Sprintf("mc%04d", i))); !ok {
			t.Fatal("get miss on present key")
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := h.Get([]byte(fmt.Sprintf("absent%02d", i))); ok {
			t.Fatal("get hit on absent key")
		}
	}
	for i := 0; i < 20; i++ {
		if err := h.Delete([]byte(fmt.Sprintf("mc%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Delete([]byte("absent-del")); err != ErrNotFound {
		t.Fatalf("Delete(absent) = %v, want ErrNotFound", err)
	}
	n := 0
	h.Scan(nil, nil, func(k, v []byte) bool { n++; return true })

	m := h.Metrics()
	c := m.Counters
	want := map[string]uint64{
		"ops.put":          150,
		"ops.insert":       100,
		"ops.update":       50,
		"ops.get":          40,
		"ops.get_miss":     10,
		"ops.delete":       20,
		"ops.delete_miss":  1,
		"ops.scan":         1,
		"ops.scan_records": uint64(n),
	}
	for name, w := range want {
		if c[name] != w {
			t.Errorf("counter %s = %d, want %d", name, c[name], w)
		}
	}
	if c["pm.persists"] == 0 || c["pm.writes"] == 0 {
		t.Error("pm counters should be non-zero after writes")
	}
	if c["dir.entries"] == 0 || c["dir.republish"] == 0 {
		t.Error("dir counters should be non-zero after inserts")
	}
	// Histograms are gated and disabled by default.
	if len(m.Hists) != 0 {
		t.Errorf("disabled metrics should report no histograms, got %v", m.Hists)
	}
}

func TestMetricsHistogramsWhenEnabled(t *testing.T) {
	h := newHART(t)
	h.EnableMetrics(true)
	for i := 0; i < 64; i++ {
		mustPut(t, h, fmt.Sprintf("he%04d", i), "v")
	}
	for i := 0; i < 64; i++ {
		h.Get([]byte(fmt.Sprintf("he%04d", i)))
	}
	h.Scan(nil, nil, func(k, v []byte) bool { return true })
	if _, err := h.PutBatch([]Record{{Key: []byte("hb1"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete([]byte("he0000")); err != nil {
		t.Fatal(err)
	}

	m := h.Metrics()
	for _, name := range []string{"ops.get", "ops.put", "ops.delete", "ops.scan", "ops.put_batch", "pm.persist"} {
		hv, ok := m.Hists[name]
		if !ok {
			t.Fatalf("histogram %q missing with metrics enabled (have %v)", name, m.Hists)
		}
		if hv.Count == 0 || hv.P99Ns == 0 || hv.MaxNs == 0 {
			t.Errorf("histogram %q has empty summary: %+v", name, hv)
		}
		if hv.P50Ns > hv.P95Ns || hv.P95Ns > hv.P99Ns {
			t.Errorf("histogram %q quantiles not monotone: %+v", name, hv)
		}
	}
	// Get/Put timing is sampled (one in 2^obs.SampleShift); the first call
	// per stripe hits, so 64 ops record at least one and at most all.
	if got := m.Hists["ops.get"].Count; got < 1 || got > 64 {
		t.Errorf("ops.get histogram count = %d, want within [1, 64]", got)
	}
	// Delete/Scan/PutBatch are timed unsampled: exactly one record each.
	for _, name := range []string{"ops.delete", "ops.scan", "ops.put_batch"} {
		if got := m.Hists[name].Count; got != 1 {
			t.Errorf("%s histogram count = %d, want 1 (unsampled)", name, got)
		}
	}

	h.EnableMetrics(false)
	before := h.Metrics().Hists["ops.get"].Count
	h.Get([]byte("he0001"))
	if after := h.Metrics().Hists["ops.get"].Count; after != before {
		t.Errorf("disabled histogram still recording: %d -> %d", before, after)
	}
}

// TestMetricsZeroAllocDisabledGet asserts the acceptance criterion that
// the disabled-metrics read path performs no heap allocation: the gated
// wrapper and the always-on counters must not push GetInto's stack
// buffer or the counter stripe selection onto the heap.
func TestMetricsZeroAllocDisabledGet(t *testing.T) {
	// On an arena without Tracking: that one records every persist.
	h, err := New(Options{ArenaSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	key := []byte("za-key")
	buf := make([]byte, 0, MaxValueLen)
	// Both shapes: the value in the leaf, the value in an object.
	for _, value := range []string{"value", "value-in-object"} {
		mustPut(t, h, string(key), value)
		allocs := testing.AllocsPerRun(200, func() {
			v, ok := h.GetInto(key, buf)
			if !ok || len(v) != len(value) {
				t.Fatal("lookup failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("GetInto of %q with metrics disabled allocates %.1f/op, want 0", value, allocs)
		}
		allocs = testing.AllocsPerRun(200, func() {
			if !h.Contains(key) {
				t.Fatal("Contains failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("Contains of %q with metrics disabled allocates %.1f/op, want 0", value, allocs)
		}
		// An update that keeps the value's shape — one store for the
		// inline value, the logged protocol for the object — publishes
		// nothing and allocates nothing.
		v := []byte(value)
		allocs = testing.AllocsPerRun(200, func() {
			v[0]++
			if err := h.Put(key, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Put over %q, same length, allocates %.1f/op, want 0", value, allocs)
		}
	}

	// An insert allocates what its ART edit does and nothing else. 64
	// one-byte ART keys make the shard's root a NODE256, which takes a
	// fresh edge in place: the one object is the leaf (the key's bytes are
	// inside it).
	for i := 0; i < 64; i++ {
		mustPut(t, h, "zb"+string(rune('0'+i)), "value")
	}
	fresh, value := []byte{'z', 'b', 0x80}, []byte("value")
	allocs := testing.AllocsPerRun(100, func() {
		if err := h.Put(fresh, value); err != nil {
			t.Fatal(err)
		}
		fresh[2]++
	})
	if allocs != 1 {
		t.Fatalf("Put of a fresh key under a one-node path allocates %.2f/op, want 1", allocs)
	}
}

// TestStatsMetricsRace hammers the consistent-snapshot paths — Stats()
// and Metrics() — against concurrent writers; run under -race it proves
// both read each tree only while its writers are locked out.
func TestStatsMetricsRace(t *testing.T) {
	h := newHART(t)
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("r%d-%04d", w, i%200))
				switch i % 3 {
				case 0, 1:
					if err := h.Put(k, []byte("val")); err != nil {
						t.Error(err)
						return
					}
				case 2:
					h.Delete(k)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		st := h.Stats()
		if st.Records < 0 {
			t.Errorf("negative record count %d", st.Records)
		}
		m := h.Metrics()
		if e := m.Counters["dir.entries"]; e > 0 && m.Counters["ops.insert"]+writers < e {
			// Every directory entry required an insert, counted once it
			// completes — so each writer can be ahead by the one entry its
			// in-flight insert created; a grossly inconsistent snapshot
			// would trip this.
			t.Errorf("inserts %d < entries %d", m.Counters["ops.insert"], e)
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsEventsAcrossRecovery(t *testing.T) {
	h := newHART(t)
	for i := 0; i < 200; i++ {
		mustPut(t, h, fmt.Sprintf("ev%04d", i), "v")
	}
	img, err := h.Arena().Crash(pmem.Config{Tracking: true}, pmem.CrashOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range h2.Events() {
		kinds[ev.Kind]++
	}
	if kinds["recover.phase"] != 4 {
		t.Errorf("want 4 recover.phase events (ulog/scan/sweep/build), got %d in %v", kinds["recover.phase"], kinds)
	}
	if kinds["open"] != 1 {
		t.Errorf("want one open event, got %d", kinds["open"])
	}
	for _, ev := range h2.Events() {
		if ev.Kind == "open" && ev.Detail != "dirty" {
			t.Errorf("open after crash image should be dirty, got %q", ev.Detail)
		}
	}
}

// pmCounters returns the pm.* counters of h's metrics snapshot.
func pmCounters(h *HART) map[string]uint64 {
	c := map[string]uint64{}
	for name, v := range h.Metrics().Counters {
		if strings.HasPrefix(name, "pm.") {
			c[name] = v
		}
	}
	return c
}

// TestPMCountsIndependentOfRecoveryWorkers pins that the arena's counts
// are a function of the image, not of how many goroutines recover it: one
// file image opened with 1, 2 and 4 recovery workers and drained reports
// the same six pm.* counters, eagerly and (other counts) lazily.
func TestPMCountsIndependentOfRecoveryWorkers(t *testing.T) {
	opts := Options{ArenaSize: 8 << 20}
	path := filepath.Join(t.TempDir(), "store.hart")
	arena, _, err := pmem.OpenFileArena(path, opts.ArenaConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewOnArena(arena, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		mustPut(t, h, fmt.Sprintf("rw%05d", i), mixedValue("v%d", i))
	}
	for i := 0; i < 3000; i += 7 {
		if err := h.Delete([]byte(fmt.Sprintf("rw%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, lazy := range []bool{false, true} {
		var want map[string]uint64
		for _, workers := range []int{1, 2, 4} {
			p := filepath.Join(t.TempDir(), "copy.hart")
			if err := os.WriteFile(p, img, 0o600); err != nil {
				t.Fatal(err)
			}
			h, err := reopen(t, p, Options{RecoveryWorkers: workers, LazyRecovery: lazy})
			if err != nil {
				t.Fatal(err)
			}
			h.DrainRecovery()
			got := pmCounters(h)
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 6 {
				t.Fatalf("snapshot has %d pm.* counters, want 6: %v", len(got), got)
			}
			if want == nil {
				want = got
			} else if !maps.Equal(got, want) {
				t.Errorf("lazy=%v workers=%d: pm counters %v, want %v", lazy, workers, got, want)
			}
		}
	}
}

// TestArenaCountsIndependentOfEmulation pins that emulation prices the
// arena's events and never counts them: one op stream on an arena without
// emulation and on one with the 300/300 latency and the cache model
// leaves the same Arena.Stats.
func TestArenaCountsIndependentOfEmulation(t *testing.T) {
	var stats [2]pmem.Stats
	for i, opts := range []Options{
		{ArenaSize: 8 << 20},
		{ArenaSize: 8 << 20, Latency: latency.Config300x300(), CacheModel: true},
	} {
		h, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2000; j++ {
			mustPut(t, h, fmt.Sprintf("em%05d", j), mixedValue("v%d", j))
		}
		// Updates that keep the shape, change the length and cross the
		// inline boundary both ways.
		for j := 0; j < 2000; j += 3 {
			mustPut(t, h, fmt.Sprintf("em%05d", j), mixedValue("u%d", j+1))
		}
		for j := 0; j < 2500; j++ {
			h.Get([]byte(fmt.Sprintf("em%05d", j)))
		}
		for j := 0; j < 2000; j += 5 {
			if err := h.Delete([]byte(fmt.Sprintf("em%05d", j))); err != nil {
				t.Fatal(err)
			}
		}
		h.Scan([]byte("em01"), []byte("em02"), func(k, v []byte) bool { return true })
		if _, err := h.PutBatch([]Record{{Key: []byte("emb1"), Value: []byte("v")}, {Key: []byte("emb2"), Value: []byte("value-in-object")}}); err != nil {
			t.Fatal(err)
		}
		stats[i] = h.Arena().Stats()
		if emulated := h.Arena().Clock().PenaltyNs() > 0; emulated != (i == 1) {
			t.Fatalf("options %d: penalty charged = %v", i, emulated)
		}
		h.Close()
	}
	if stats[0] != stats[1] {
		t.Fatalf("arena counts differ under emulation:\n off %+v\n on  %+v", stats[0], stats[1])
	}
}
