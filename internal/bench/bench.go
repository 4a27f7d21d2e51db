// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section IV). Each RunFig*
// function reproduces one figure's rows; cmd/hartbench drives them and
// prints the same series the paper plots.
//
// Latency methodology: each figure picks how its trees pay the PM
// penalties (per persistent() and per stalled PM load), and no option
// overrides it. Every single-threaded figure and ablation builds its
// trees in latency.ModeAccount and adds the accounted penalty to the
// measured wall time: the paper's own offline-adding method (Eq. 1-2),
// exact per charge. Fig. 10d runs its workers concurrently, where a sum
// of penalties is not a wall time, so it builds in latency.ModeSpin and
// busy-waits each penalty. A spin overshoots by the cost of reading the
// clock: on a 2-vCPU guest spinning a 285 ns write penalty took 412-487
// ns (BenchmarkSpin in internal/latency reads it on any host). The
// skew figure measures directory contention with latency off.
package bench

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/casl-sdsu/hart/internal/artcow"
	"github.com/casl-sdsu/hart/internal/core"
	"github.com/casl-sdsu/hart/internal/fptree"
	"github.com/casl-sdsu/hart/internal/kv"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/woart"
	"github.com/casl-sdsu/hart/internal/workload"
)

// Tree names in the paper's presentation order.
var TreeNames = []string{"HART", "WOART", "ART+CoW", "FPTree"}

// Config parameterises a harness run.
type Config struct {
	// Records is the Sequential/Random record count (paper: 1 M-100 M;
	// scaled default 100,000).
	Records int
	// DictRecords is the Dictionary size (paper: 466,544).
	DictRecords int
	// RangeRecords is the number of records range queries touch
	// (paper: 100,000).
	RangeRecords int
	// MixedOps is the operation count of the Fig. 9 mixed workloads.
	MixedOps int
	// ValueSize is the record payload (8 or 16 bytes).
	ValueSize int
	// Seed feeds the workload generators.
	Seed int64
	// Trees restricts which trees run (nil = all four).
	Trees []string
	// ScaleSweep lists the Fig. 8 / Fig. 10c record counts.
	ScaleSweep []int
	// Threads lists the thread counts of Fig. 10d and the skew figure.
	Threads []int
	// Dist is the request distribution the mixed workloads draw
	// search/update/delete targets from (zero value = Uniform, the
	// paper's setting; cmd/hartbench's -dist zipf selects
	// workload.ZipfTheta).
	Dist workload.Distribution
	// Out receives progress and tables.
	Out io.Writer
}

// WithDefaults fills unset fields with the scaled-down defaults.
func (c Config) WithDefaults() Config {
	if c.Records == 0 {
		c.Records = 100000
	}
	if c.DictRecords == 0 {
		c.DictRecords = 100000
	}
	if c.RangeRecords == 0 {
		c.RangeRecords = min(c.Records, 100000)
	}
	if c.MixedOps == 0 {
		c.MixedOps = c.Records
	}
	if c.ValueSize == 0 {
		c.ValueSize = 8
	}
	if c.Seed == 0 {
		c.Seed = 20190520 // IPDPS'19 week
	}
	if len(c.Trees) == 0 {
		c.Trees = TreeNames
	}
	if len(c.ScaleSweep) == 0 {
		c.ScaleSweep = []int{c.Records / 10, c.Records / 2, c.Records}
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Dist.Name == "" {
		c.Dist = workload.Uniform()
	}
	return c
}

// arenaSize estimates a safely generous arena for n records of the tree.
func arenaSize(tree string, n int) int64 {
	per := int64(512)
	switch tree {
	case "WOART", "ART+CoW":
		per = 1024
	}
	size := int64(n)*per + (32 << 20)
	return size
}

// NewIndex builds one tree under the given latency configuration, in
// its Mode.
func NewIndex(tree string, lat latency.Config, records int) (kv.Index, error) {
	size := arenaSize(tree, records)
	// The CPU cache model only matters when reads carry a PM penalty.
	cacheModel := lat.ReadDeltaNs() > 0
	switch tree {
	case "HART":
		return core.New(core.Options{ArenaSize: size, Latency: lat, CacheModel: cacheModel})
	case "WOART":
		return woart.New(woart.Options{ArenaSize: size, Latency: lat, CacheModel: cacheModel})
	case "ART+CoW":
		return artcow.New(artcow.Options{ArenaSize: size, Latency: lat, CacheModel: cacheModel})
	case "FPTree":
		return fptree.New(fptree.Options{ArenaSize: size, Latency: lat, CacheModel: cacheModel})
	default:
		return nil, fmt.Errorf("bench: unknown tree %q", tree)
	}
}

// Row is one measured data point.
type Row struct {
	// Figure is the paper figure id ("4a", "10d", ...).
	Figure string
	// Workload labels the key set or mix.
	Workload string
	// Latency is the PM configuration label ("300/100", ...).
	Latency string
	// Tree is the index name.
	Tree string
	// Op is the measured operation.
	Op string
	// Records is the record or operation count.
	Records int
	// Threads is the worker count (1 unless Fig. 10d).
	Threads int
	// NsPerOp is the average latency per operation.
	NsPerOp float64
	// TotalSec is the full-run duration (Fig. 8, Fig. 10c).
	TotalSec float64
	// MIOPS is millions of operations per second (Fig. 10d).
	MIOPS float64
	// PMBytes / DRAMBytes report footprints (Fig. 10b).
	PMBytes, DRAMBytes int64
}

// measure runs fn and returns its duration including latency penalties:
// spun ones are in the wall time already, and under ModeAccount the
// penalties ix's clock charged meanwhile are added.
func measure(ix kv.Index, fn func()) time.Duration {
	clock := ix.Arena().Clock()
	before := clock.PenaltyNs()
	start := time.Now()
	fn()
	d := time.Since(start)
	if clock.Config().Mode == latency.ModeAccount {
		d += time.Duration(clock.PenaltyNs() - before)
	}
	return d
}

// timeOp applies op ("insert", "search", "search-into", "update" or
// "delete"; see applyOp) to every key on ix and returns how long it took,
// by measure. threads > 1 deals the keys round-robin to that many
// concurrent workers. A search that misses is an error, and a worker
// stops at its first error.
func timeOp(ix kv.Index, op string, keys [][]byte, val []byte, threads int) (time.Duration, error) {
	parts := [][][]byte{keys}
	if threads > 1 {
		parts = make([][][]byte, threads)
		for i, k := range keys {
			parts[i%threads] = append(parts[i%threads], k)
		}
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	d := measure(ix, func() {
		for w, part := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = applyOp(ix, op, part, val)
			}()
		}
		wg.Wait()
	})
	return d, errors.Join(errs...)
}

// applyOp applies op to every key on ix, stopping at the first error.
// "search" calls kv.Index.Get, the one lookup every tree offers, which
// returns a fresh copy of the value: the figures that compare trees
// charge each tree that copy. "search-into" is HART's GetInto into one
// reused buffer, which allocates nothing, as the paper's C lookups do: the
// figures that run HART alone (10d, A1) search that way. On a 2-vCPU
// guest the copy added about 75 ns to a 480 ns search at 300/100 on one
// thread, and 110 ns to 330 ns on two.
func applyOp(ix kv.Index, op string, keys [][]byte, val []byte) error {
	h, isHART := ix.(*core.HART)
	if op == "search-into" && !isHART {
		return fmt.Errorf("bench: %s has no GetInto", ix.Name())
	}
	buf := make([]byte, 0, core.MaxValueLen)
	for _, k := range keys {
		var err error
		found := true
		switch op {
		case "insert":
			err = ix.Put(k, val)
		case "search":
			_, found = ix.Get(k)
		case "search-into":
			_, found = h.GetInto(k, buf)
		case "update":
			err = ix.Update(k, val)
		case "delete":
			err = ix.Delete(k)
		default:
			err = fmt.Errorf("bench: unknown op %q", op)
		}
		if !found {
			err = fmt.Errorf("%s search lost key %q", ix.Name(), k)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timeScan times an ordered scan of [start, end] on ix, by measure, and
// returns how long it took and how many records it visited.
func timeScan(ix kv.Index, start, end []byte) (time.Duration, int) {
	got := 0
	d := measure(ix, func() {
		ix.Scan(start, append(end, 0), func(k, v []byte) bool { got++; return true })
	})
	return d, got
}

// keysFor returns the named workload's key set.
func keysFor(c Config, name string) [][]byte {
	switch name {
	case "Dictionary":
		return workload.Dictionary(c.DictRecords)
	case "Sequential":
		return workload.Sequential(c.Records)
	case "Random":
		return workload.Random(c.Records, c.Seed)
	default:
		panic("bench: unknown workload " + name)
	}
}

// Workloads lists the three key-set workloads in paper order.
var Workloads = []string{"Dictionary", "Sequential", "Random"}

// shuffled returns a deterministic permutation of keys (search/update/
// delete phases use a different order than the insertion order).
func shuffled(keys [][]byte, seed int64) [][]byte {
	out := make([][]byte, len(keys))
	copy(out, keys)
	rng := newRng(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// rng is a tiny splitmix64 so the harness does not perturb the workload
// package's generators.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{uint64(seed)*2654435761 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Report is a set of rows with table rendering.
type Report []Row

// FprintTable renders the report grouped by figure.
func (r Report) FprintTable(w io.Writer) {
	byFig := map[string]Report{}
	var figs []string
	for _, row := range r {
		if _, ok := byFig[row.Figure]; !ok {
			figs = append(figs, row.Figure)
		}
		byFig[row.Figure] = append(byFig[row.Figure], row)
	}
	slices.SortFunc(figs, compareFigures)
	for _, fig := range figs {
		fmt.Fprintf(w, "\n== Figure %s ==\n", fig)
		rows := byFig[fig]
		switch {
		case rows[0].MIOPS > 0:
			fmt.Fprintf(w, "%-12s %-10s %-8s %-8s %10s\n", "workload", "op", "latency", "threads", "MIOPS")
			for _, row := range rows {
				fmt.Fprintf(w, "%-12s %-10s %-8s %-8d %10.3f\n",
					row.Workload, row.Op, row.Latency, row.Threads, row.MIOPS)
			}
			if fig == "skew" {
				fprintSkewRatios(w, rows)
			}
		case rows[0].PMBytes > 0 || rows[0].DRAMBytes > 0:
			fmt.Fprintf(w, "%-12s %-10s %12s %12s\n", "workload", "tree", "PM MB", "DRAM MB")
			for _, row := range rows {
				fmt.Fprintf(w, "%-12s %-10s %12.2f %12.2f\n",
					row.Workload, row.Tree, float64(row.PMBytes)/(1<<20), float64(row.DRAMBytes)/(1<<20))
			}
		case rows[0].TotalSec > 0:
			fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %10s %12s\n", "workload", "tree", "op", "latency", "records", "total s")
			for _, row := range rows {
				fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %10d %12.4f\n",
					row.Workload, row.Tree, row.Op, row.Latency, row.Records, row.TotalSec)
			}
		default:
			fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %12s\n", "workload", "tree", "op", "latency", "us/op")
			for _, row := range rows {
				fmt.Fprintf(w, "%-12s %-10s %-10s %-8s %12.3f\n",
					row.Workload, row.Tree, row.Op, row.Latency, row.NsPerOp/1000)
			}
		}
	}
}

// compareFigures orders figure ids as the paper does: numbered figures
// by number, then sub-figure letter (4a … 9c, 10a … 10d); then the
// ablations A1, A2, …; then any other id (skew) by name.
func compareFigures(a, b string) int {
	ga, na, ra := figureRank(a)
	gb, nb, rb := figureRank(b)
	return cmp.Or(cmp.Compare(ga, gb), cmp.Compare(na, nb), strings.Compare(ra, rb))
}

// figureRank splits a figure id into its group (0 a paper figure, 1 an
// ablation, 2 any other id), its number and what follows the number.
func figureRank(id string) (group, n int, rest string) {
	body := strings.TrimPrefix(id, "A")
	if body != id {
		group = 1
	}
	digits := len(body) - len(strings.TrimLeft(body, "0123456789"))
	n, err := strconv.Atoi(body[:digits])
	if err != nil {
		return 2, 0, id
	}
	return group, n, body[digits:]
}
