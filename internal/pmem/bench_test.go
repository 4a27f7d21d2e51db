package pmem

import (
	"sync/atomic"
	"testing"
)

// benchPages is how many 4 KiB pages the parallel benchmarks spread their
// goroutines over, one page each (goroutine g uses page g mod benchPages).
const benchPages = 64

// parallelArena returns an arena without emulation and the first of
// benchPages reserved pages.
func parallelArena(b *testing.B) (*Arena, Ptr) {
	b.Helper()
	a, err := New(Config{Size: (benchPages + 1) * 4096})
	if err != nil {
		b.Fatal(err)
	}
	base, err := a.Reserve(benchPages*4096, 4096)
	if err != nil {
		b.Fatal(err)
	}
	return a, base
}

var benchSink uint64

// BenchmarkArenaRead8Parallel measures Read8 with every goroutine loading
// words of its own page: the load path should write no line another
// goroutine writes, so ns/op should fall as -cpu rises.
func BenchmarkArenaRead8Parallel(b *testing.B) {
	a, base := parallelArena(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := base + Ptr(next.Add(1)%benchPages*4096)
		var s uint64
		for i := 0; pb.Next(); i++ {
			s += a.Read8(p + Ptr(i%512*8))
		}
		atomic.AddUint64(&benchSink, s)
	})
}

// BenchmarkArenaPersistParallel measures Persist of one word with every
// goroutine persisting lines of its own page.
func BenchmarkArenaPersistParallel(b *testing.B) {
	a, base := parallelArena(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := base + Ptr(next.Add(1)%benchPages*4096)
		for i := 0; pb.Next(); i++ {
			a.Persist(p+Ptr(i%512*8), 8)
		}
	})
}
