package bench

import (
	"fmt"
	"time"

	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// figLetter maps workloads to the paper's sub-figure letters.
var figLetter = map[string]string{"Dictionary": "a", "Sequential": "b", "Random": "c"}

// basicOps are the four basic operations in the paper's order.
var basicOps = []string{"insert", "search", "update", "delete"}

// preloadValue is the value the figures insert their key sets with.
func preloadValue(c Config) []byte { return workload.Values(1, c.ValueSize, c.Seed+7)[0] }

// preload fills ix with keys, untimed.
func preload(c Config, ix kv.Index, keys [][]byte) error {
	if _, err := timeOp(ix, "insert", keys, preloadValue(c), 1); err != nil {
		return fmt.Errorf("preload %s: %w", ix.Name(), err)
	}
	return nil
}

// basicOpFig runs one of Figs. 4-7: every workload × latency × tree.
func basicOpFig(c Config, fig, op string) (Report, error) {
	var report Report
	newVal := workload.Values(1, c.ValueSize, c.Seed+29)[0]
	for _, wl := range Workloads {
		keys := keysFor(c, wl)
		phase := shuffled(keys, c.Seed+13)
		for _, lat := range latency.PaperConfigs() {
			for _, tree := range c.Trees {
				ix, err := NewIndex(tree, lat, len(keys)+1)
				if err != nil {
					return nil, err
				}
				var d time.Duration
				if op == "insert" {
					d, err = timeOp(ix, op, keys, preloadValue(c), 1)
				} else if err = preload(c, ix, keys); err == nil {
					d, err = timeOp(ix, op, phase, newVal, 1)
				}
				if err != nil {
					return nil, fmt.Errorf("fig %s %s/%s/%s: %w", fig, wl, lat.Name(), tree, err)
				}
				ix.Close()
				n := len(keys)
				report = append(report, Row{
					Figure: fig + figLetter[wl], Workload: wl, Latency: lat.Name(),
					Tree: tree, Op: op, Records: n, Threads: 1,
					NsPerOp: float64(d.Nanoseconds()) / float64(n),
				})
				fmt.Fprintf(c.Out, "fig%s %-10s %-8s %-8s %-7s %9.3f us/op\n",
					fig, wl, lat.Name(), tree, op, float64(d.Nanoseconds())/float64(n)/1000)
			}
		}
	}
	return report, nil
}

// RunFig4 reproduces Fig. 4 (insertion performance comparisons).
func RunFig4(c Config) (Report, error) { return basicOpFig(c.WithDefaults(), "4", "insert") }

// RunFig5 reproduces Fig. 5 (search performance comparisons).
func RunFig5(c Config) (Report, error) { return basicOpFig(c.WithDefaults(), "5", "search") }

// RunFig6 reproduces Fig. 6 (update performance comparisons).
func RunFig6(c Config) (Report, error) { return basicOpFig(c.WithDefaults(), "6", "update") }

// RunFig7 reproduces Fig. 7 (deletion performance comparisons).
func RunFig7(c Config) (Report, error) { return basicOpFig(c.WithDefaults(), "7", "delete") }

// RunFig8 reproduces Fig. 8: total time of the four basic operations as
// the Random record count grows, under 300/100.
func RunFig8(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x100()
	var report Report
	for _, n := range c.ScaleSweep {
		keys := workload.Random(n, c.Seed)
		phase := shuffled(keys, c.Seed+13)
		val := workload.Values(1, c.ValueSize, c.Seed+29)[0]
		for _, tree := range c.Trees {
			ix, err := NewIndex(tree, lat, n+1)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(c.Out, "fig8 n=%-9d %-8s", n, tree)
			for i, op := range basicOps {
				opKeys, opVal := phase, val
				if op == "insert" {
					opKeys, opVal = keys, preloadValue(c)
				}
				d, err := timeOp(ix, op, opKeys, opVal, 1)
				if err != nil {
					return nil, fmt.Errorf("fig 8 %s n=%d: %w", tree, n, err)
				}
				report = append(report, Row{
					Figure: "8" + string(rune('a'+i)), Workload: "Random", Latency: lat.Name(),
					Tree: tree, Op: op, Records: n, Threads: 1, TotalSec: d.Seconds(),
				})
				fmt.Fprintf(c.Out, " %s %.3fs", op, d.Seconds())
			}
			fmt.Fprintln(c.Out)
			ix.Close()
		}
	}
	return report, nil
}

// RunFig9 reproduces Fig. 9: the three YCSB-style mixed workloads.
func RunFig9(c Config) (Report, error) {
	c = c.WithDefaults()
	var report Report
	subs := map[string]string{"Read-Intensive": "a", "Read-Modified-Write": "b", "Write-Intensive": "c"}
	pre := workload.Random(c.Records, c.Seed)
	fresh := workload.Random(c.MixedOps, c.Seed+101)
	// Remove overlap between preloaded and fresh keys.
	seen := make(map[string]bool, len(pre))
	for _, k := range pre {
		seen[string(k)] = true
	}
	uniq := fresh[:0]
	for _, k := range fresh {
		if !seen[string(k)] {
			uniq = append(uniq, k)
		}
	}
	fresh = uniq
	for _, mix := range workload.Mixes() {
		ops := mix.GenerateDist(c.MixedOps, pre, fresh, c.ValueSize, c.Seed+3, c.Dist)
		for _, lat := range latency.PaperConfigs() {
			for _, tree := range c.Trees {
				ix, err := NewIndex(tree, lat, c.Records+c.MixedOps+1)
				if err != nil {
					return nil, err
				}
				if err := preload(c, ix, pre); err != nil {
					return nil, err
				}
				var opErr error
				d := measure(ix, func() {
					for _, op := range ops {
						switch op.Kind {
						case workload.OpInsert:
							opErr = ix.Put(op.Key, op.Value)
						case workload.OpSearch:
							ix.Get(op.Key)
						case workload.OpUpdate:
							opErr = ix.Update(op.Key, op.Value)
						case workload.OpDelete:
							opErr = ix.Delete(op.Key)
						}
						if opErr != nil {
							return
						}
					}
				})
				if opErr != nil {
					return nil, fmt.Errorf("fig 9 %s/%s/%s: %w", mix.Name, lat.Name(), tree, opErr)
				}
				ix.Close()
				report = append(report, Row{
					Figure: "9" + subs[mix.Name], Workload: mix.Name, Latency: lat.Name(),
					Tree: tree, Op: "mixed", Records: len(ops), Threads: 1,
					NsPerOp: float64(d.Nanoseconds()) / float64(len(ops)),
				})
				fmt.Fprintf(c.Out, "fig9 %-20s %-8s %-8s %9.3f us/op\n",
					mix.Name, lat.Name(), tree, float64(d.Nanoseconds())/float64(len(ops))/1000)
			}
		}
	}
	return report, nil
}

// RunFig10a reproduces Fig. 10a: range query of RangeRecords records under
// Sequential. Following the paper, the ART-based trees answer the range
// with one search per key while FPTree walks its linked leaves; a native
// ordered HART scan is reported as an extra series.
func RunFig10a(c Config) (Report, error) {
	c = c.WithDefaults()
	var report Report
	keys := workload.Sequential(c.Records)
	qn := min(c.RangeRecords, len(keys))
	start, end := keys[0], keys[qn-1]
	for _, lat := range latency.PaperConfigs() {
		for _, tree := range c.Trees {
			ix, err := NewIndex(tree, lat, c.Records+1)
			if err != nil {
				return nil, err
			}
			if err := preload(c, ix, keys); err != nil {
				return nil, err
			}
			var d time.Duration
			got := qn
			if tree == "FPTree" {
				d, got = timeScan(ix, start, end)
			} else {
				d, err = timeOp(ix, "search", keys[:qn], nil, 1)
			}
			if err == nil && got != qn {
				err = fmt.Errorf("ranged %d/%d records", got, qn)
			}
			if err != nil {
				return nil, fmt.Errorf("fig 10a %s: %w", tree, err)
			}
			report = append(report, Row{
				Figure: "10a", Workload: "Sequential", Latency: lat.Name(),
				Tree: tree, Op: "range", Records: qn, Threads: 1,
				NsPerOp: float64(d.Nanoseconds()) / float64(qn),
			})
			fmt.Fprintf(c.Out, "fig10a %-8s %-8s %9.3f us/record\n",
				lat.Name(), tree, float64(d.Nanoseconds())/float64(qn)/1000)
			// Extra series: HART's native ordered scan (design extension).
			if tree == "HART" {
				if d, got = timeScan(ix, start, end); got != qn {
					return nil, fmt.Errorf("fig 10a HART-scan: %d/%d records", got, qn)
				}
				report = append(report, Row{
					Figure: "10a", Workload: "Sequential", Latency: lat.Name(),
					Tree: "HART-scan", Op: "range", Records: qn, Threads: 1,
					NsPerOp: float64(d.Nanoseconds()) / float64(qn),
				})
			}
			ix.Close()
		}
	}
	return report, nil
}

// RunFig10b reproduces Fig. 10b: PM and DRAM consumption under Sequential.
func RunFig10b(c Config) (Report, error) {
	c = c.WithDefaults()
	var report Report
	keys := workload.Sequential(c.Records)
	for _, tree := range c.Trees {
		ix, err := NewIndex(tree, latency.Off(), c.Records+1)
		if err != nil {
			return nil, err
		}
		if err := preload(c, ix, keys); err != nil {
			return nil, err
		}
		si := ix.SizeInfo()
		ix.Close()
		report = append(report, Row{
			Figure: "10b", Workload: "Sequential", Tree: tree, Op: "memory",
			Records: c.Records, Threads: 1, PMBytes: si.PMBytes, DRAMBytes: si.DRAMBytes,
		})
		fmt.Fprintf(c.Out, "fig10b %-8s PM %8.2f MB  DRAM %8.2f MB\n",
			tree, float64(si.PMBytes)/(1<<20), float64(si.DRAMBytes)/(1<<20))
	}
	return report, nil
}

// RunFig10c reproduces Fig. 10c: build time vs recovery time for the two
// hybrid trees (HART and FPTree) under Random at 300/100.
func RunFig10c(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x100()
	var report Report
	for _, n := range c.ScaleSweep {
		keys := workload.Random(n, c.Seed)
		for _, tree := range []string{"HART", "FPTree"} {
			if !contains(c.Trees, tree) {
				continue
			}
			ix, err := NewIndex(tree, lat, n+1)
			if err != nil {
				return nil, err
			}
			dBuild, err := timeOp(ix, "insert", keys, preloadValue(c), 1)
			if err != nil {
				return nil, err
			}
			rec, ok := ix.(kv.Recoverable)
			if !ok {
				return nil, fmt.Errorf("fig 10c: %s is not recoverable", tree)
			}
			dRecover := measure(ix, func() { err = rec.Rebuild() })
			if err != nil {
				return nil, err
			}
			if ix.Len() != n {
				return nil, fmt.Errorf("fig 10c %s: %d records after rebuild, want %d", tree, ix.Len(), n)
			}
			ix.Close()
			report = append(report,
				Row{Figure: "10c", Workload: "Random", Latency: lat.Name(), Tree: tree,
					Op: "build", Records: n, Threads: 1, TotalSec: dBuild.Seconds()},
				Row{Figure: "10c", Workload: "Random", Latency: lat.Name(), Tree: tree,
					Op: "recovery", Records: n, Threads: 1, TotalSec: dRecover.Seconds()},
			)
			fmt.Fprintf(c.Out, "fig10c n=%-9d %-8s build %8.4fs recovery %8.4fs (%.1fx faster)\n",
				n, tree, dBuild.Seconds(), dRecover.Seconds(), dBuild.Seconds()/dRecover.Seconds())
		}
	}
	return report, nil
}

// RunFig10d reproduces Fig. 10d: HART MIOPS for the four basic operations
// as the thread count grows, under Random at 300/100. Its workers run
// concurrently, so the penalties are spun into their wall time.
func RunFig10d(c Config) (Report, error) {
	c = c.WithDefaults()
	lat := latency.Config300x100()
	lat.Mode = latency.ModeSpin
	var report Report
	keys := workload.Random(c.Records, c.Seed)
	val := workload.Values(1, c.ValueSize, c.Seed+29)[0]
	for _, threads := range c.Threads {
		for _, op := range basicOps {
			ix, err := NewIndex("HART", lat, c.Records+1)
			if err != nil {
				return nil, err
			}
			if op != "insert" {
				if _, err := timeOp(ix, "insert", keys, val, 1); err != nil {
					return nil, err
				}
			}
			run := op
			if op == "search" {
				run = "search-into"
			}
			d, err := timeOp(ix, run, keys, val, threads)
			if err != nil {
				return nil, fmt.Errorf("fig 10d %s x%d: %w", op, threads, err)
			}
			ix.Close()
			miops := float64(len(keys)) / d.Seconds() / 1e6
			report = append(report, Row{
				Figure: "10d", Workload: "Random", Latency: lat.Name(), Tree: "HART",
				Op: op, Records: len(keys), Threads: threads, MIOPS: miops,
			})
			fmt.Fprintf(c.Out, "fig10d threads=%-3d %-7s %8.3f MIOPS\n", threads, op, miops)
		}
	}
	return report, nil
}

// contains reports whether list holds s.
func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// RunAll executes every figure and concatenates the reports.
func RunAll(c Config) (Report, error) {
	c = c.WithDefaults()
	var all Report
	runs := []struct {
		name string
		fn   func(Config) (Report, error)
	}{
		{"fig4", RunFig4}, {"fig5", RunFig5}, {"fig6", RunFig6}, {"fig7", RunFig7},
		{"fig8", RunFig8}, {"fig9", RunFig9}, {"fig10a", RunFig10a},
		{"fig10b", RunFig10b}, {"fig10c", RunFig10c}, {"fig10d", RunFig10d},
	}
	for _, r := range runs {
		rep, err := r.fn(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		all = append(all, rep...)
	}
	return all, nil
}
