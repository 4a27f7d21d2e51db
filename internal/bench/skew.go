package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/casl-sdsu/hart/internal/core"
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

// SkewResult is one measured cell of the skew comparison.
type SkewResult struct {
	// Mode is "uniform" (uniform ranks — the ceiling) or "zipfian"
	// (zipfian ranks).
	Mode string
	// Op is always "Put": a bulk insert of Records fresh keys.
	Op string
	// Threads is the writer-goroutine / GOMAXPROCS count.
	Threads int
	// NsPerOp is the mean wall-clock cost per inserted record.
	NsPerOp float64
	// MOPS is millions of inserts per second (all writers combined).
	MOPS float64
}

// SkewReport is what RunSkew measured: one result per mode and thread
// count, and the ratio the comparison is read by.
type SkewReport struct {
	// Records is the number of keys each cell inserts.
	Records   int
	ValueSize int
	// Theta and RankUniverse parameterise the zipfian key stream.
	Theta        float64
	RankUniverse int
	NumCPU       int
	Results      []SkewResult
	// ZipfianFrac maps "t<threads>" to zipfian MOPS ÷ uniform MOPS: the
	// share of the unskewed throughput left under zipfian skew.
	ZipfianFrac map[string]float64
}

// skewKeys generates each writer's insert stream: the first two bytes
// encode a rank drawn from dist over [0, SkewRankUniverse), the third
// byte tags the writer, and a fixed-width counter makes the key unique.
// Writers share a shard exactly when they draw the same rank.
func skewKeys(n, threads int, dist workload.Distribution, seed int64) [][][]byte {
	const alpha = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	per := (n + threads - 1) / threads
	out := make([][][]byte, threads)
	for w := 0; w < threads; w++ {
		cnt := min(per, n-w*per)
		if cnt <= 0 {
			break
		}
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		keys := make([][]byte, cnt)
		for i := 0; i < cnt; i++ {
			r := dist.Pick(rng, SkewRankUniverse)
			k := make([]byte, 7)
			k[0] = alpha[r/len(alpha)]
			k[1] = alpha[r%len(alpha)]
			k[2] = alpha[w%len(alpha)]
			v := i
			for j := 6; j >= 3; j-- {
				k[j] = alpha[v%len(alpha)]
				v /= len(alpha)
			}
			keys[i] = k
		}
		out[w] = keys
	}
	return out
}

// skewCell times one mode at one thread count: a fresh store, the
// pre-generated per-writer key streams, manual wall-clock over the
// partitioned writers (the generator cost stays outside the timed
// region).
func skewCell(c Config, mode string, parts [][][]byte, threads int) (SkewResult, error) {
	h, err := core.New(core.Options{ArenaSize: arenaSize("HART", c.Records)})
	if err != nil {
		return SkewResult{}, err
	}
	defer h.Close()
	val := make([]byte, c.ValueSize)
	for i := range val {
		val[i] = byte('A' + i%26)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	runtime.GC()
	prev := runtime.GOMAXPROCS(threads)
	defer runtime.GOMAXPROCS(prev)

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	start := time.Now()
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(part [][]byte) {
			defer wg.Done()
			for _, k := range part {
				if err := h.Put(k, val); err != nil {
					errs <- err
					return
				}
			}
		}(part)
	}
	wg.Wait()
	d := time.Since(start)
	close(errs)
	for err := range errs {
		return SkewResult{}, err
	}
	if got := h.Len(); got != total {
		return SkewResult{}, fmt.Errorf("skew %s left %d records, want %d", mode, got, total)
	}
	ns := float64(d.Nanoseconds()) / float64(total)
	return SkewResult{Mode: mode, Op: "Put", Threads: threads, NsPerOp: ns, MOPS: 1e3 / ns}, nil
}

// RunSkew measures the skew comparison and returns the report.
func RunSkew(c Config) (*SkewReport, error) {
	c = c.WithDefaults()
	threads := c.PathThreads
	if len(threads) == 0 {
		threads = []int{1, 4, 8}
	}
	rep := &SkewReport{
		Records:      c.Records,
		ValueSize:    c.ValueSize,
		Theta:        SkewTheta,
		RankUniverse: SkewRankUniverse,
		NumCPU:       runtime.NumCPU(),
		ZipfianFrac:  map[string]float64{},
	}
	uniformMOPS := map[int]float64{}
	for _, mode := range []string{"uniform", "zipfian"} {
		dist := workload.ZipfTheta(SkewTheta)
		if mode == "uniform" {
			dist = workload.Uniform()
		}
		for _, t := range threads {
			fmt.Fprintf(c.Out, "skew: %s insert threads=%d...\n", mode, t)
			parts := skewKeys(c.Records, t, dist, c.Seed+int64(t))
			var r SkewResult
			for rep := 0; rep < SkewReps; rep++ {
				rr, err := skewCell(c, mode, parts, t)
				if err != nil {
					return nil, err
				}
				if rep == 0 || rr.NsPerOp < r.NsPerOp {
					r = rr
				}
			}
			rep.Results = append(rep.Results, r)
			if mode == "uniform" {
				uniformMOPS[t] = r.MOPS
			} else if base := uniformMOPS[t]; base > 0 {
				rep.ZipfianFrac[fmt.Sprintf("t%d", t)] = r.MOPS / base
			}
		}
	}
	return rep, nil
}

// sortedKeys returns the map's "t<threads>" keys in numeric order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return len(keys[i]) < len(keys[j]) || (len(keys[i]) == len(keys[j]) && keys[i] < keys[j])
	})
	return keys
}

// FprintTable renders the report for the terminal.
func (r *SkewReport) FprintTable(w io.Writer) {
	fmt.Fprintf(w, "\n== Skew: zipfian(theta=%.2f, ranks=%d) vs uniform inserts (records=%d, NumCPU=%d) ==\n",
		r.Theta, r.RankUniverse, r.Records, r.NumCPU)
	fmt.Fprintf(w, "%-10s %-6s %-8s %12s %10s\n", "mode", "op", "threads", "ns/op", "Mops/s")
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-10s %-6s %-8d %12.1f %10.3f\n", res.Mode, res.Op, res.Threads, res.NsPerOp, res.MOPS)
	}
	for _, t := range sortedKeys(r.ZipfianFrac) {
		fmt.Fprintf(w, "zipfian/uniform %s: %.2f\n", t, r.ZipfianFrac[t])
	}
}
