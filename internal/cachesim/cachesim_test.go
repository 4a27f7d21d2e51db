package cachesim

import (
	"sync"
	"testing"
)

func TestMissThenHit(t *testing.T) {
	c := New(1<<14, 4) // 16 KB, 4-way: 64 sets
	if m := c.Access(0, 8); m != 1 {
		t.Fatalf("first access: %d misses, want 1", m)
	}
	if m := c.Access(0, 8); m != 0 {
		t.Fatalf("second access: %d misses, want 0", m)
	}
	if m := c.Access(32, 8); m != 0 {
		t.Fatalf("same-line access: %d misses, want 0", m)
	}
	if !c.Contains(0) {
		t.Fatal("Contains(0) = false after access")
	}
}

func TestMultiLineAccess(t *testing.T) {
	c := New(1<<14, 4)
	// 100 bytes starting at offset 60 spans lines 0, 1, 2.
	if m := c.Access(60, 100); m != 3 {
		t.Fatalf("spanning access: %d misses, want 3", m)
	}
	if m := c.Access(64, 64); m != 0 {
		t.Fatalf("re-access line 1: %d misses, want 0", m)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1<<14, 4) // 64 sets; same set every 64 lines = every 4096 bytes
	const stride = 64 * 64
	// Fill one set's 4 ways.
	for i := 0; i < 4; i++ {
		c.Access(uint64(i*stride), 1)
	}
	for i := 0; i < 4; i++ {
		if m := c.Access(uint64(i*stride), 1); m != 0 {
			t.Fatalf("way %d evicted too early", i)
		}
	}
	// A 5th conflicting line evicts the LRU (line 0... but we just touched
	// them in order 0..3, so LRU is 0).
	c.Access(4*stride, 1)
	if c.Contains(0) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Contains(4 * stride) {
		t.Fatal("newly inserted line missing")
	}
	if !c.Contains(3 * stride) {
		t.Fatal("MRU line was evicted")
	}
}

func TestFlushEvicts(t *testing.T) {
	c := New(1<<14, 4)
	c.Access(128, 64)
	if !c.Contains(128) {
		t.Fatal("line not cached")
	}
	c.Flush(128, 64)
	if c.Contains(128) {
		t.Fatal("Flush did not evict")
	}
	if m := c.Access(128, 1); m != 1 {
		t.Fatalf("post-flush access: %d misses, want 1", m)
	}
}

func TestFlushAbsentLineHarmless(t *testing.T) {
	c := New(1<<14, 4)
	c.Access(0, 1)
	c.Flush(1<<20, 256) // nothing cached there
	if !c.Contains(0) {
		t.Fatal("flush of absent lines evicted a cached one")
	}
	if m := c.Access(0, 1); m != 0 {
		t.Fatalf("cached line after unrelated flush: %d misses, want 0", m)
	}
}

func TestCounters(t *testing.T) {
	c := New(1<<14, 4)
	misses := []int{c.Access(0, 1), c.Access(0, 1), c.Access(64, 1)}
	if misses[0] != 1 || misses[1] != 0 || misses[2] != 1 {
		t.Fatalf("miss, hit, miss: Access returned %v", misses)
	}
}

func TestDefaultGeometry(t *testing.T) {
	c := Default()
	if c.numSets != 32768 || c.ways != 8 {
		t.Fatalf("Default geometry = %d sets × %d ways", c.numSets, c.ways)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 8) },
		func() { New(1<<20, 0) },
		func() { New(3*64*8, 8) }, // 3 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

// TestConcurrentAccess has eight goroutines each touch 10 000 lines of
// their own, first touches all, while flushing lines of goroutine 0's
// range. Every Access must report its miss, and since the 80 000 lines fill
// at most 3 of any set's 8 ways, every line no goroutine flushed must
// still be cached afterwards.
func TestConcurrentAccess(t *testing.T) {
	const workers, per = 8, 10000
	c := Default()
	var wg sync.WaitGroup
	misses := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				misses[w] += c.Access(uint64((w*per+i)*64), 8)
				if i%16 == 0 {
					c.Flush(uint64(i*64), 64)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, m := range misses {
		if m != per {
			t.Errorf("goroutine %d: %d misses over %d first touches", w, m, per)
		}
	}
	for line := 0; line < workers*per; line++ {
		if flushed := line < per && line%16 == 0; !flushed && !c.Contains(uint64(line*64)) {
			t.Fatalf("line %d lost without a flush", line)
		}
	}
}
