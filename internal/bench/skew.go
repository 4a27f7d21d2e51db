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
// shards absorb most of the writes. The fixed kh=2 directory serialises
// every writer on the hot shard's lock and keeps growing one big COW ART
// there; the elastic directory (DESIGN.md §14) notices the heat and
// splits the hot shard into one-byte-deeper children, which in this
// workload are per-writer (the byte after the rank prefix is the writer
// tag), restoring the disjoint-shard parallelism of the uniform case.
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
	// Mode is "uniform" (uniform ranks, fixed directory — the ceiling),
	// "fixed" (zipfian ranks, fixed kh=2 directory — the baseline) or
	// "elastic" (zipfian ranks, hot-shard splitting on).
	Mode string
	// Op is always "Put": a bulk insert of Records fresh keys.
	Op string
	// Threads is the writer-goroutine / GOMAXPROCS count.
	Threads int
	// NsPerOp is the mean wall-clock cost per inserted record.
	NsPerOp float64
	// MOPS is millions of inserts per second (all writers combined).
	MOPS float64
	// Splits and MaxDepth report the directory geometry after the run
	// (elastic rows only): persisted split prefixes and the longest
	// directory entry.
	Splits   int
	MaxDepth int
}

// SkewReport is what RunSkew measured: one result per mode and thread
// count, and the two ratios the comparison is read by.
type SkewReport struct {
	// Records is the number of keys each cell inserts.
	Records   int
	ValueSize int
	// Theta and RankUniverse parameterise the zipfian key stream.
	Theta        float64
	RankUniverse int
	// SplitOps is the heat threshold the elastic cells ran with.
	SplitOps int
	NumCPU   int
	Results  []SkewResult
	// RecoveredFrac maps "t<threads>" to elastic MOPS ÷ uniform MOPS:
	// the fraction of the unskewed throughput the elastic directory
	// recovers under zipfian skew. The acceptance bar is ≥ 0.70 at every
	// multi-writer thread count.
	RecoveredFrac map[string]float64
	// FixedFrac maps "t<threads>" to fixed MOPS ÷ uniform MOPS: how much
	// the skew costs when the directory cannot adapt, kept as the
	// measured baseline.
	FixedFrac map[string]float64
}

// skewKeys generates each writer's insert stream: the first two bytes
// encode a rank drawn from dist over [0, SkewRankUniverse), the third
// byte tags the writer, and a fixed-width counter makes the key unique.
// Under zipfian ranks the hot shard's children split by the writer tag,
// so a split is exactly a writer-parallelism restoration.
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
func skewCell(c Config, mode string, parts [][][]byte, splitOps, threads int) (SkewResult, error) {
	h, err := core.New(core.Options{
		ArenaSize:        arenaSize("HART", c.Records),
		ElasticDirectory: mode == "elastic",
		SplitOps:         splitOps,
	})
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
	res := SkewResult{Mode: mode, Op: "Put", Threads: threads, NsPerOp: ns, MOPS: 1e3 / ns}
	if mode == "elastic" {
		st := h.Stats()
		res.Splits = st.Dir.Splits
		res.MaxDepth = st.Dir.MaxDepth
	}
	return res, nil
}

// RunSkew measures the skew comparison and returns the report.
func RunSkew(c Config) (*SkewReport, error) {
	c = c.WithDefaults()
	threads := c.PathThreads
	if len(threads) == 0 {
		threads = []int{1, 4, 8}
	}
	// Scale the split threshold with the run so toy-sized smoke runs
	// still split: the hot shard sees ~13% of all inserts, so Records/64
	// leaves it roughly eight splits' worth of heat.
	splitOps := max(128, c.Records/64)

	rep := &SkewReport{
		Records:       c.Records,
		ValueSize:     c.ValueSize,
		Theta:         SkewTheta,
		RankUniverse:  SkewRankUniverse,
		SplitOps:      splitOps,
		NumCPU:        runtime.NumCPU(),
		RecoveredFrac: map[string]float64{},
		FixedFrac:     map[string]float64{},
	}
	uniformMOPS := map[int]float64{}
	for _, mode := range []string{"uniform", "fixed", "elastic"} {
		dist := workload.ZipfTheta(SkewTheta)
		if mode == "uniform" {
			dist = workload.Uniform()
		}
		for _, t := range threads {
			fmt.Fprintf(c.Out, "skew: %s insert threads=%d...\n", mode, t)
			parts := skewKeys(c.Records, t, dist, c.Seed+int64(t))
			var r SkewResult
			for rep := 0; rep < SkewReps; rep++ {
				rr, err := skewCell(c, mode, parts, splitOps, t)
				if err != nil {
					return nil, err
				}
				if rep == 0 || rr.NsPerOp < r.NsPerOp {
					r = rr
				}
			}
			rep.Results = append(rep.Results, r)
			key := fmt.Sprintf("t%d", t)
			switch mode {
			case "uniform":
				uniformMOPS[t] = r.MOPS
			case "fixed":
				if base := uniformMOPS[t]; base > 0 {
					rep.FixedFrac[key] = r.MOPS / base
				}
			case "elastic":
				if base := uniformMOPS[t]; base > 0 {
					rep.RecoveredFrac[key] = r.MOPS / base
				}
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
	fmt.Fprintf(w, "\n== Skew: zipfian(theta=%.2f, ranks=%d) inserts, fixed vs elastic directory (records=%d, split_ops=%d, NumCPU=%d) ==\n",
		r.Theta, r.RankUniverse, r.Records, r.SplitOps, r.NumCPU)
	fmt.Fprintf(w, "%-10s %-6s %-8s %12s %10s %8s %9s\n", "mode", "op", "threads", "ns/op", "Mops/s", "splits", "max depth")
	for _, res := range r.Results {
		depth := ""
		if res.MaxDepth > 0 {
			depth = fmt.Sprintf("%9d", res.MaxDepth)
		}
		splits := ""
		if res.Mode == "elastic" {
			splits = fmt.Sprintf("%8d", res.Splits)
		}
		fmt.Fprintf(w, "%-10s %-6s %-8d %12.1f %10.3f %8s %9s\n",
			res.Mode, res.Op, res.Threads, res.NsPerOp, res.MOPS, splits, depth)
	}
	for _, t := range sortedKeys(r.FixedFrac) {
		fmt.Fprintf(w, "fixed/uniform %s: %.2f\n", t, r.FixedFrac[t])
	}
	for _, t := range sortedKeys(r.RecoveredFrac) {
		fmt.Fprintf(w, "elastic/uniform %s: %.2f (bar: ≥ 0.70 multi-writer)\n", t, r.RecoveredFrac[t])
	}
}
