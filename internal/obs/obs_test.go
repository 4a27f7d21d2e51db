package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	const workers, perWorker = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Add(1)
				} else {
					c.AddStripe(stripe, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("Counter lost updates: got %d want %d", got, workers*perWorker)
	}
}

// TestCounterSpreadsOneCallPath pins that Add spreads goroutines running
// the same code over the stripes: 16 of them, one increment each from one
// call path, must land in at least 4 distinct cells (goroutine stacks are
// size-aligned, so a hint taken from the low bits of a stack address put
// them all in one or two).
func TestCounterSpreadsOneCallPath(t *testing.T) {
	const goroutines = 16
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Add(1)
		}()
	}
	wg.Wait()
	used := 0
	for i := range c.cells {
		if c.cells[i].n.Load() > 0 {
			used++
		}
	}
	if used < 4 {
		t.Fatalf("%d goroutines on one call path used %d of %d cells, want >= 4", goroutines, used, NumStripes)
	}
	if got := c.Value(); got != goroutines {
		t.Fatalf("Value = %d, want %d", got, goroutines)
	}
}

func TestGate(t *testing.T) {
	var g Gate
	if g.Enabled() {
		t.Fatal("zero-value Gate should be off")
	}
	g.Set(true)
	if !g.Enabled() {
		t.Fatal("Gate should be on after Set(true)")
	}
}

// TestHistogramBucketProperty records random values and checks each lands
// in exactly the bucket whose bounds bracket it.
func TestHistogramBucketProperty(t *testing.T) {
	if BucketOf(-5) != 0 || BucketOf(0) != 0 {
		t.Fatal("non-positive values must land in bucket 0")
	}
	rng := rand.New(rand.NewSource(20190520))
	for trial := 0; trial < 500; trial++ {
		// Spread magnitudes across the full non-negative bucket range (the
		// shift of at least one keeps the sign bit clear).
		v := int64(rng.Uint64() >> (1 + uint(rng.Intn(63))))
		if trial == 0 {
			v = 0
		}
		var h Histogram
		h.Record(v)
		s := h.Snapshot()
		b := BucketOf(v)
		if s.Buckets[b] != 1 {
			t.Fatalf("value %d: bucket %d count = %d, want 1", v, b, s.Buckets[b])
		}
		if uint64(v) > BucketUpper(b) {
			t.Fatalf("value %d above bucket %d upper bound %d", v, b, BucketUpper(b))
		}
		if b > 0 && uint64(v) <= BucketUpper(b-1) {
			t.Fatalf("value %d should be in bucket %d or below, landed in %d", v, b-1, b)
		}
		if s.Count != 1 || s.Max != uint64(v) {
			t.Fatalf("value %d: count=%d max=%d", v, s.Count, s.Max)
		}
	}
}

// TestHistogramQuantile pins the quantile estimator's contract: upper
// estimates, monotone in q, bounded by the true max.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	values := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}
	for _, v := range values {
		h.Record(v)
	}
	s := h.Snapshot()
	p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= s.Max) {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d max=%d", p50, p95, p99, s.Max)
	}
	// p50 must be an upper bound on the true median (50) and within one
	// bucket (2×) of it.
	if p50 < 50 || p50 >= 128 {
		t.Fatalf("p50 = %d, want in [50, 128)", p50)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	if m := s.Mean(); math.Abs(m-145.0) > 0.001 {
		t.Fatalf("mean = %v, want 145", m)
	}
}

func TestEventRingWraparound(t *testing.T) {
	var r EventRing
	total := RingSize*2 + 17
	for i := 0; i < total; i++ {
		r.Emit("test", "", uint64(i), 0)
	}
	evs := r.Snapshot()
	if len(evs) != RingSize {
		t.Fatalf("snapshot holds %d events, want %d", len(evs), RingSize)
	}
	// The survivors must be exactly the newest RingSize emissions, in order.
	for i, e := range evs {
		want := uint64(total - RingSize + i + 1)
		if e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, want)
		}
		if e.A != want-1 {
			t.Fatalf("event %d: payload %d, want %d", i, e.A, want-1)
		}
	}
}

// TestEventRingConcurrent hammers Emit from parallel goroutines (run
// under -race in check.sh): no lost sequence numbers, no duplicate Seq
// in a snapshot, snapshot stays sorted.
func TestEventRingConcurrent(t *testing.T) {
	const workers, perWorker = 8, 3 * RingSize / 4
	var r EventRing
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit("spin", "", uint64(w), uint64(i))
				if i%64 == 0 {
					r.Snapshot() // readers race the wraparound
				}
			}
		}(w)
	}
	wg.Wait()
	evs := r.Snapshot()
	if len(evs) == 0 || len(evs) > RingSize {
		t.Fatalf("snapshot size %d out of range", len(evs))
	}
	if got := evs[len(evs)-1].Seq; got != workers*perWorker {
		t.Fatalf("newest seq = %d, want %d", got, workers*perWorker)
	}
	seen := map[uint64]bool{}
	for i, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if i > 0 && evs[i-1].Seq >= e.Seq {
			t.Fatalf("snapshot not sorted at %d", i)
		}
	}
}

func TestWritePromAndHandler(t *testing.T) {
	snap := Snapshot{
		Counters: map[string]uint64{"ops.get": 123, "dir.clones": 4},
		Hists: map[string]HistVal{
			"ops.get": {Count: 123, P50Ns: 256, P95Ns: 1024, P99Ns: 2048, MaxNs: 5000},
		},
	}
	var sb strings.Builder
	if err := WriteProm(&sb, snap); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hart_ops_get 123",
		"hart_dir_clones 4",
		`hart_ops_get_ns{quantile="0.99"} 2048`,
		"hart_ops_get_ns_count 123",
		"hart_ops_get_ns_max 5000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}

	rr := httptest.NewRecorder()
	Handler(func() Snapshot { return snap }).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rr.Body.String(), "hart_ops_get 123") {
		t.Fatalf("handler output missing counter:\n%s", rr.Body.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	snap := Snapshot{
		Counters: map[string]uint64{"ops.put": 9},
		Hists:    map[string]HistVal{"ops.put": {Count: 9, MeanNs: 100.5, P50Ns: 64}},
		Events:   []Event{{Seq: 1, Kind: "open.dirty"}},
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["ops.put"] != 9 || back.Hists["ops.put"].P50Ns != 64 || back.Events[0].Kind != "open.dirty" {
		t.Fatalf("round trip mangled snapshot: %+v", back)
	}
}
