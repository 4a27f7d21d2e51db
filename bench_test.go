// Benchmarks mirroring the paper's figures, one testing.B target per
// table/figure. These are the quick, representative versions (Random
// workload, one latency point per figure); the full grids — every
// workload × latency × tree, exactly as plotted — are produced by
// cmd/hartbench.
package hart_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/casl-sdsu/hart/internal/bench"
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// benchLatency keeps testing.B runs fast and deterministic: penalties are
// accounted, not spun, so ns/op excludes them — cmd/hartbench reports the
// latency-inflated figures.
const benchMode = latency.ModeAccount

// newTree builds one tree sized for n records.
func newTree(b *testing.B, name string, n int) kv.Index {
	b.Helper()
	ix, err := bench.NewIndex(name, latency.Config300x300(), benchMode, n)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// benchKeys produces n distinct Random-workload keys.
func benchKeys(n int) [][]byte { return workload.Random(n, 42) }

var benchVal = []byte("12345678")

// BenchmarkFig4Insert measures insertion across all four trees (Fig. 4).
func BenchmarkFig4Insert(b *testing.B) {
	for _, tree := range bench.TreeNames {
		b.Run(tree, func(b *testing.B) {
			keys := benchKeys(b.N)
			ix := newTree(b, tree, b.N)
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Put(keys[i], benchVal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Search measures search on a 100k-record store (Fig. 5).
func BenchmarkFig5Search(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	for _, tree := range bench.TreeNames {
		b.Run(tree, func(b *testing.B) {
			ix := newTree(b, tree, n)
			defer ix.Close()
			for _, k := range keys {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ix.Get(keys[i%n]); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkFig6Update measures value updates (Fig. 6).
func BenchmarkFig6Update(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	for _, tree := range bench.TreeNames {
		b.Run(tree, func(b *testing.B) {
			ix := newTree(b, tree, n)
			defer ix.Close()
			for _, k := range keys {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Update(keys[i%n], benchVal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Delete measures deletion (Fig. 7); records are restored
// outside the timer so every timed op is a real delete.
func BenchmarkFig7Delete(b *testing.B) {
	for _, tree := range bench.TreeNames {
		b.Run(tree, func(b *testing.B) {
			keys := benchKeys(b.N)
			ix := newTree(b, tree, b.N)
			defer ix.Close()
			for _, k := range keys {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Delete(keys[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Scaling measures insertion at growing record counts; the
// paper's Fig. 8 plots total time, which is b.N * ns/op here.
func BenchmarkFig8Scaling(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		for _, tree := range []string{"HART", "WOART"} {
			b.Run(fmt.Sprintf("%s/n=%d", tree, n), func(b *testing.B) {
				keys := benchKeys(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ix := newTree(b, tree, n)
					b.StartTimer()
					for _, k := range keys {
						if err := ix.Put(k, benchVal); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					ix.Close()
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkFig9Mixed measures the three YCSB-style mixes on HART (Fig. 9).
func BenchmarkFig9Mixed(b *testing.B) {
	const n = 50000
	pre := benchKeys(n)
	for _, mix := range workload.Mixes() {
		b.Run(mix.Name, func(b *testing.B) {
			fresh := workload.Random(b.N+n, 77)[n:]
			ops := mix.Generate(b.N, pre, fresh, 8, 5)
			ix := newTree(b, "HART", n+b.N)
			defer ix.Close()
			for _, k := range pre {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for _, op := range ops {
				switch op.Kind {
				case workload.OpInsert:
					if err := ix.Put(op.Key, op.Value); err != nil {
						b.Fatal(err)
					}
				case workload.OpSearch:
					ix.Get(op.Key)
				case workload.OpUpdate:
					if err := ix.Update(op.Key, op.Value); err != nil {
						b.Fatal(err)
					}
				case workload.OpDelete:
					if err := ix.Delete(op.Key); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig10aRange measures range queries: per-key search for the
// ART-based trees (the paper's method), leaf-chain scan for FPTree, and
// HART's native ordered scan as the design extension.
func BenchmarkFig10aRange(b *testing.B) {
	const n = 100000
	keys := workload.Sequential(n)
	build := func(b *testing.B, tree string) kv.Index {
		ix := newTree(b, tree, n)
		for _, k := range keys {
			if err := ix.Put(k, benchVal); err != nil {
				b.Fatal(err)
			}
		}
		return ix
	}
	for _, tree := range []string{"HART", "WOART", "ART+CoW"} {
		b.Run(tree+"/per-key", func(b *testing.B) {
			ix := build(b, tree)
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Get(keys[i%n])
			}
		})
	}
	for _, tree := range []string{"FPTree", "HART"} {
		b.Run(tree+"/scan", func(b *testing.B) {
			ix := build(b, tree)
			defer ix.Close()
			b.ResetTimer()
			got := 0
			for got < b.N {
				ix.Scan(keys[0], nil, func(k, v []byte) bool {
					got++
					return got < b.N
				})
			}
		})
	}
}

// BenchmarkFig10cRecovery measures HART and FPTree recovery (Fig. 10c):
// each iteration rebuilds all volatile state from PM.
func BenchmarkFig10cRecovery(b *testing.B) {
	const n = 50000
	keys := benchKeys(n)
	for _, tree := range []string{"HART", "FPTree"} {
		b.Run(tree, func(b *testing.B) {
			ix := newTree(b, tree, n)
			defer ix.Close()
			for _, k := range keys {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			rec := ix.(kv.Recoverable)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rec.Rebuild(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10dScalability measures HART MIOPS under concurrent
// searchers (Fig. 10d); RunParallel scales workers with GOMAXPROCS.
func BenchmarkFig10dScalability(b *testing.B) {
	const n = 100000
	keys := benchKeys(n)
	for _, op := range []string{"search", "insert"} {
		b.Run(op, func(b *testing.B) {
			ix := newTree(b, "HART", n+b.N)
			defer ix.Close()
			for _, k := range keys {
				if err := ix.Put(k, benchVal); err != nil {
					b.Fatal(err)
				}
			}
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(ctr.Add(1)) * 1000003
				for pb.Next() {
					i++
					switch op {
					case "search":
						ix.Get(keys[i%n])
					case "insert":
						ix.Put([]byte(fmt.Sprintf("ins%02d-%09d", i%89, i)), benchVal)
					}
				}
			})
		})
	}
}
