// Two in-process A/B tools for the paths behind Figs. 10a and 10c: range
// queries and recovery, at 300/300 on one Sequential or Random set. Every
// figure of the paper, over its full grid, is cmd/hartbench's.
package hart_test

import (
	"testing"

	"github.com/casl-sdsu/hart/internal/bench"
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// loadedTree builds one tree holding keys. Its penalties are accounted,
// not spun, so ns/op excludes them: cmd/hartbench reports the
// latency-inflated figures.
func loadedTree(b *testing.B, name string, keys [][]byte) kv.Index {
	b.Helper()
	ix, err := bench.NewIndex(name, latency.Config300x300(), len(keys))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := ix.Put(k, []byte("12345678")); err != nil {
			b.Fatal(err)
		}
	}
	return ix
}

// BenchmarkFig10aRange measures range queries: per-key search for the
// ART-based trees (the paper's method), leaf-chain scan for FPTree, and
// HART's native ordered scan as the design extension.
func BenchmarkFig10aRange(b *testing.B) {
	const n = 100000
	keys := workload.Sequential(n)
	for _, tree := range []string{"HART", "WOART", "ART+CoW"} {
		b.Run(tree+"/per-key", func(b *testing.B) {
			ix := loadedTree(b, tree, keys)
			defer ix.Close()
			buf := make([]byte, 0, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.GetInto(keys[i%n], buf)
			}
		})
	}
	for _, tree := range []string{"FPTree", "HART"} {
		b.Run(tree+"/scan", func(b *testing.B) {
			ix := loadedTree(b, tree, keys)
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
	keys := workload.Random(50000, 42)
	for _, tree := range []string{"HART", "FPTree"} {
		b.Run(tree, func(b *testing.B) {
			ix := loadedTree(b, tree, keys)
			defer ix.Close()
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
