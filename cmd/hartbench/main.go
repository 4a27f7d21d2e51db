// Command hartbench regenerates the paper's evaluation: every figure of
// Section IV (Figs. 4-10) plus the Section I headline speedups, over the
// same workloads (Dictionary, Sequential, Random, the three YCSB-style
// mixes) and PM latency configurations (300/100, 300/300, 600/300).
//
// Record counts default to a laptop-scale 100,000 (the paper uses 1 M to
// 100 M on a two-socket Xeon); pass -records to scale up. Shapes — who
// wins, by what factor, where the crossovers fall — are the reproduction
// target, not absolute times.
//
// Usage:
//
//	hartbench -fig all
//	hartbench -fig 4 -records 1000000
//	hartbench -fig 10d -threads 1,2,4,8,16
//	hartbench -fig summary -mode spin
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/casl-sdsu/hart/internal/bench"
	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to run: all, 4, 5, 6, 7, 8, 9, 10a, 10b, 10c, 10d, summary, ablation, skew")
		dist    = flag.String("dist", "uniform", "mixed-workload request distribution: uniform (the paper's) or zipf")
		theta   = flag.Float64("theta", 0.99, "zipfian skew parameter for -dist zipf, in (0, 1)")
		records = flag.Int("records", 100000, "Sequential/Random record count")
		valsize = flag.Int("valuesize", 0, "record payload bytes (default 8; max 16)")
		dict    = flag.Int("dict", 0, "Dictionary size (default min(records, 466544); pass 466544 for the paper's corpus)")
		mixed   = flag.Int("mixedops", 0, "mixed-workload operation count (default records)")
		mode    = flag.String("mode", "spin", "latency injection: spin (wall-clock) or account (added offline, the paper's method)")
		trees   = flag.String("trees", "", "comma-separated subset of HART,WOART,ART+CoW,FPTree")
		sweep   = flag.String("sweep", "", "comma-separated record counts for figs 8/10c (default records/10,records/2,records)")
		threads = flag.String("threads", "1,2,4,8,16", "thread counts for fig 10d")
		quiet   = flag.Bool("quiet", false, "suppress progress lines, print only the final tables")
		chart   = flag.Bool("chart", false, "render ASCII bar charts after the tables")
	)
	flag.Parse()

	cfg := bench.Config{Records: *records, MixedOps: *mixed, ValueSize: *valsize, Out: os.Stderr}
	if *quiet {
		cfg.Out = nil
	}
	cfg.DictRecords = *dict
	if cfg.DictRecords == 0 {
		cfg.DictRecords = min(*records, 466544)
	}
	switch *mode {
	case "spin":
		cfg.Mode = latency.ModeSpin
	case "account":
		cfg.Mode = latency.ModeAccount
	default:
		fatalf("unknown -mode %q", *mode)
	}
	switch *dist {
	case "uniform":
		cfg.Dist = workload.Uniform()
	case "zipf":
		cfg.Dist = workload.ZipfTheta(*theta)
	default:
		fatalf("unknown -dist %q", *dist)
	}
	if *trees != "" {
		cfg.Trees = strings.Split(*trees, ",")
	}
	if *sweep != "" {
		cfg.ScaleSweep = parseInts(*sweep)
	}
	if *threads != "" {
		cfg.Threads = parseInts(*threads)
	}
	// The skew comparison keeps its 1/4/8 matrix unless the user passed
	// -threads explicitly (the flag's default serves fig 10d).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threads" {
			cfg.PathThreads = cfg.Threads
		}
	})
	cfg = cfg.WithDefaults()

	var (
		rep bench.Report
		err error
	)
	switch *fig {
	case "all":
		rep, err = bench.RunAll(cfg)
	case "4":
		rep, err = bench.RunFig4(cfg)
	case "5":
		rep, err = bench.RunFig5(cfg)
	case "6":
		rep, err = bench.RunFig6(cfg)
	case "7":
		rep, err = bench.RunFig7(cfg)
	case "8":
		rep, err = bench.RunFig8(cfg)
	case "9":
		rep, err = bench.RunFig9(cfg)
	case "10a":
		rep, err = bench.RunFig10a(cfg)
	case "10b":
		rep, err = bench.RunFig10b(cfg)
	case "10c":
		rep, err = bench.RunFig10c(cfg)
	case "10d":
		rep, err = bench.RunFig10d(cfg)
	case "skew":
		runSkew(cfg)
		return
	case "summary":
		rep, err = runBasics(cfg)
	case "ablation":
		rep, err = bench.RunAblations(cfg)
	default:
		fatalf("unknown -fig %q", *fig)
	}
	if err != nil {
		fatalf("%v", err)
	}
	rep.FprintTable(os.Stdout)
	if *chart {
		rep.FprintCharts(os.Stdout)
	}
	if *fig == "all" || *fig == "summary" {
		bench.FprintSummary(os.Stdout, bench.Summarise(rep))
	}
}

// runSkew runs the zipfian vs uniform insert comparison: what a skewed
// key stream costs the directory's per-shard write locks.
func runSkew(cfg bench.Config) {
	rep, err := bench.RunSkew(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.FprintTable(os.Stdout)
}

// runBasics runs Figs. 4-7, the inputs of the headline summary.
func runBasics(cfg bench.Config) (bench.Report, error) {
	var all bench.Report
	for _, fn := range []func(bench.Config) (bench.Report, error){
		bench.RunFig4, bench.RunFig5, bench.RunFig6, bench.RunFig7,
	} {
		rep, err := fn(cfg)
		if err != nil {
			return nil, err
		}
		all = append(all, rep...)
	}
	return all, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatalf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out
}

// fatalf prints an error and exits.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hartbench: "+format+"\n", args...)
	os.Exit(1)
}
