// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section IV). Each RunFig*
// function reproduces one figure's rows; cmd/hartbench drives them and
// prints the same series the paper plots.
//
// Latency methodology: by default the harness runs the trees in
// latency.ModeSpin, so PM write penalties (per persistent()) and PM read
// penalties (per simulated-LLC-miss load) are injected into wall-clock
// time — multi-threaded results then need no correction. In
// latency.ModeAccount the harness instead adds the accounted penalty to
// the measured wall time, which is exactly the paper's offline-adding
// method; both modes agree for single-threaded runs.
package bench

import (
	"fmt"
	"io"
	"sort"
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
	// Mode selects latency injection (ModeSpin or ModeAccount).
	Mode latency.Mode
	// Trees restricts which trees run (nil = all four).
	Trees []string
	// ScaleSweep lists the Fig. 8 / Fig. 10c record counts.
	ScaleSweep []int
	// Threads lists the Fig. 10d thread counts.
	Threads []int
	// PathThreads lists the thread counts of the skew comparison (nil =
	// 1/4/8).
	PathThreads []int
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
	if c.Mode == latency.ModeOff {
		c.Mode = latency.ModeSpin
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

// NewIndex builds one tree under the given latency configuration.
func NewIndex(tree string, lat latency.Config, mode latency.Mode, records int) (kv.Index, error) {
	lat.Mode = mode
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

// measure runs fn and returns its duration including latency penalties.
func measure(ix kv.Index, mode latency.Mode, fn func()) time.Duration {
	clock := ix.Arena().Clock()
	before := clock.PenaltyNs()
	start := time.Now()
	fn()
	d := time.Since(start)
	if mode == latency.ModeAccount {
		d += time.Duration(clock.PenaltyNs() - before)
	}
	return d
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
	sort.Strings(figs)
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
