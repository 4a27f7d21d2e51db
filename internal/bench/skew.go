package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// Skew experiment: multi-writer insert throughput when the key stream is
// zipfian over a small prefix universe, so a handful of hash-directory
// shards absorb most of the writes, against the same inserts drawn
// uniformly. The kh=2 directory serialises every writer on the hot
// shard's lock and keeps growing one big ART there; the ratio of the
// two is what the skew costs.
//
// Latency injection is off: the subject is directory contention, which
// identical PM penalties would only dilute.

// SkewRankUniverse is the number of distinct 2-byte rank prefixes the
// skewed key stream draws from. 1024 ranks under theta=0.99 send ~13% of
// all inserts to the single hottest prefix.
const SkewRankUniverse = 1024

// SkewTheta is the YCSB-standard zipfian skew parameter.
const SkewTheta = 0.99

// SkewReps is how many times each cell runs; the fastest repetition is
// kept (the usual wall-clock discipline on shared machines).
const SkewReps = 3

// skewKeys generates n insert keys for threads writers, key j for writer
// j % threads as timeOp deals them. The first two bytes encode a rank
// the writer's own generator draws from dist over [0, SkewRankUniverse),
// the third byte tags the writer, and the writer's fixed-width counter
// makes the key unique. Writers share a shard exactly when they draw the
// same rank.
func skewKeys(n, threads int, dist workload.Distribution, seed int64) [][]byte {
	const alpha = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	rngs := make([]*rand.Rand, threads)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(seed + int64(w)*7919))
	}
	keys := make([][]byte, n)
	for j := range keys {
		w, i := j%threads, j/threads
		r := dist.Pick(rngs[w], SkewRankUniverse)
		k := make([]byte, 7)
		k[0] = alpha[r/len(alpha)]
		k[1] = alpha[r%len(alpha)]
		k[2] = alpha[w%len(alpha)]
		for p := 6; p >= 3; p-- {
			k[p] = alpha[i%len(alpha)]
			i /= len(alpha)
		}
		keys[j] = k
	}
	return keys
}

// skewInsert times one bulk insert of keys by threads writers into a
// fresh store, with GOMAXPROCS set to threads.
func skewInsert(keys [][]byte, val []byte, threads int) (time.Duration, error) {
	ix, err := NewIndex("HART", latency.Off(), len(keys))
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
	d, err := timeOp(ix, "insert", keys, val, threads)
	if err == nil && ix.Len() != len(keys) {
		err = fmt.Errorf("skew left %d records, want %d", ix.Len(), len(keys))
	}
	return d, err
}

// RunSkew measures the skew comparison: for the uniform and the zipfian
// key stream at each thread count of c.Threads, the fastest of SkewReps
// bulk inserts of c.Records fresh keys.
func RunSkew(c Config) (Report, error) {
	c = c.WithDefaults()
	val := workload.Values(1, c.ValueSize, c.Seed+29)[0]
	var report Report
	for _, dist := range []workload.Distribution{workload.Uniform(), workload.ZipfTheta(SkewTheta)} {
		for _, t := range c.Threads {
			fmt.Fprintf(c.Out, "skew: %s insert threads=%d...\n", dist.Name, t)
			keys := skewKeys(c.Records, t, dist, c.Seed+int64(t))
			var best time.Duration
			for rep := 0; rep < SkewReps; rep++ {
				d, err := skewInsert(keys, val, t)
				if err != nil {
					return nil, fmt.Errorf("skew %s x%d: %w", dist.Name, t, err)
				}
				if rep == 0 || d < best {
					best = d
				}
			}
			ns := float64(best.Nanoseconds()) / float64(len(keys))
			report = append(report, Row{
				Figure: "skew", Workload: dist.Name, Tree: "HART", Op: "insert",
				Records: len(keys), Threads: t, NsPerOp: ns, MIOPS: 1e3 / ns,
			})
		}
	}
	return report, nil
}

// fprintSkewRatios prints, per writer count, the share of the uniform
// insert throughput left under zipfian skew.
func fprintSkewRatios(w io.Writer, rows Report) {
	uniform := map[int]float64{}
	for _, r := range rows {
		if r.Workload == "uniform" {
			uniform[r.Threads] = r.MIOPS
		}
	}
	for _, r := range rows {
		if base := uniform[r.Threads]; r.Workload == "zipfian" && base > 0 {
			fmt.Fprintf(w, "zipfian/uniform t%d: %.2f\n", r.Threads, r.MIOPS/base)
		}
	}
}
