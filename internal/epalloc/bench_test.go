package epalloc

import (
	"testing"

	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/pmart"
	"github.com/casl-sdsu/hart/internal/pmem"
)

// BenchmarkEPMallocVsRegular is the allocator ablation behind Section
// III.A.4: EPallocator amortises chunk metadata over 56 objects, while a
// regular PM allocator persists metadata per object. Run with -benchmem
// to see the difference; the persists/op metric is reported explicitly.
func BenchmarkEPMallocVsRegular(b *testing.B) {
	lat := latency.Config300x300()
	lat.Mode = latency.ModeAccount

	b.Run("EPallocator", func(b *testing.B) {
		arena, err := pmem.New(pmem.Config{Size: int64(b.N)*48 + (8 << 20), Latency: lat})
		if err != nil {
			b.Fatal(err)
		}
		al, err := New(arena, []ClassSpec{{Name: "leaf", ObjSize: 40}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obj, err := al.AllocStripe(0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := al.SetBit(obj); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(arena.Persists())/float64(b.N), "persists/op")
	})

	b.Run("RegularPMAllocator", func(b *testing.B) {
		arena, err := pmem.New(pmem.Config{Size: int64(b.N)*48 + (8 << 20), Latency: lat})
		if err != nil {
			b.Fatal(err)
		}
		na := pmart.NewNodeAlloc(arena)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := na.Alloc(40); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(arena.Persists())/float64(b.N), "persists/op")
	})
}

// BenchmarkAllocFreeCycle measures steady-state slot turnover (the mixed
// workload pattern: every update allocates one value and frees another).
func BenchmarkAllocFreeCycle(b *testing.B) {
	arena, err := pmem.New(pmem.Config{Size: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	al, err := New(arena, []ClassSpec{{Name: "value8", ObjSize: 8}})
	if err != nil {
		b.Fatal(err)
	}
	// Steady-state population.
	var live []pmem.Ptr
	for i := 0; i < 1000; i++ {
		obj, _ := al.AllocStripe(0, 0)
		al.SetBit(obj)
		live = append(live, obj)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := al.AllocStripe(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		al.SetBit(obj)
		old := live[i%len(live)]
		live[i%len(live)] = obj
		if err := al.Release(old); err != nil {
			b.Fatal(err)
		}
	}
}
