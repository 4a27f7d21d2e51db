// Command hartbench regenerates the paper's evaluation: every figure of
// Section IV (Figs. 4-10) plus the Section I headline speedups, over the
// same workloads (Dictionary, Sequential, Random, the three YCSB-style
// mixes) and PM latency configurations (300/100, 300/300, 600/300).
//
// Record counts default to a laptop-scale 100,000 (the paper uses 1 M to
// 100 M on a two-socket Xeon); pass -records to scale up. Shapes — who
// wins, by what factor, where the crossovers fall — are the reproduction
// target, not absolute times. Each figure picks how PM penalties are
// charged (see package internal/bench): added to the wall time for the
// single-threaded figures, spun for Fig. 10d.
//
// Usage:
//
//	hartbench -fig all
//	hartbench -fig 4 -records 1000000
//	hartbench -fig 10d -threads 1,2,4,8,16
//	hartbench -fig 9 -dist zipf -trees HART
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/casl-sdsu/hart/internal/bench"
	"github.com/casl-sdsu/hart/internal/workload"
)

// figures maps each -fig value to its runner.
var figures = map[string]func(bench.Config) (bench.Report, error){
	"all":      bench.RunAll,
	"4":        bench.RunFig4,
	"5":        bench.RunFig5,
	"6":        bench.RunFig6,
	"7":        bench.RunFig7,
	"8":        bench.RunFig8,
	"9":        bench.RunFig9,
	"10a":      bench.RunFig10a,
	"10b":      bench.RunFig10b,
	"10c":      bench.RunFig10c,
	"10d":      bench.RunFig10d,
	"summary":  runBasics,
	"ablation": bench.RunAblations,
	"skew":     bench.RunSkew,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it runs the figure args name, prints
// progress to stderr and the tables to stdout, and returns the exit
// status (0 ok, 1 a run failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hartbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure to run: all, 4, 5, 6, 7, 8, 9, 10a, 10b, 10c, 10d, summary, ablation, skew")
		dist    = fs.String("dist", "uniform", "mixed-workload request distribution: uniform (the paper's) or zipf")
		theta   = fs.Float64("theta", 0.99, "zipfian skew parameter for -dist zipf, in (0, 1)")
		records = fs.Int("records", 100000, "Sequential/Random record count")
		valsize = fs.Int("valuesize", 0, "record payload bytes (default 8; max 16)")
		dict    = fs.Int("dict", 0, "Dictionary size (default min(records, 466544); pass 466544 for the paper's corpus)")
		mixed   = fs.Int("mixedops", 0, "mixed-workload operation count (default records)")
		trees   = fs.String("trees", "", "comma-separated subset of HART,WOART,ART+CoW,FPTree")
		sweep   = fs.String("sweep", "", "comma-separated record counts for figs 8/10c (default records/10,records/2,records)")
		threads = fs.String("threads", "1,2,4,8,16", "thread counts for fig 10d and skew")
		quiet   = fs.Bool("quiet", false, "suppress progress lines, print only the final tables")
		chart   = fs.Bool("chart", false, "render ASCII bar charts after the tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "hartbench: "+format+"\n", args...)
		return 2
	}
	runFig, ok := figures[*fig]
	if !ok {
		return usage("unknown -fig %q", *fig)
	}
	cfg := bench.Config{Records: *records, MixedOps: *mixed, ValueSize: *valsize, Out: stderr}
	if *quiet {
		cfg.Out = nil
	}
	cfg.DictRecords = *dict
	if cfg.DictRecords == 0 {
		cfg.DictRecords = min(*records, 466544)
	}
	switch *dist {
	case "uniform":
		cfg.Dist = workload.Uniform()
	case "zipf":
		if *theta <= 0 || *theta >= 1 {
			return usage("-theta %v outside (0, 1)", *theta)
		}
		cfg.Dist = workload.ZipfTheta(*theta)
	default:
		return usage("unknown -dist %q", *dist)
	}
	if *trees != "" {
		cfg.Trees = strings.Split(*trees, ",")
	}
	var err error
	if *sweep != "" {
		if cfg.ScaleSweep, err = parseInts(*sweep); err != nil {
			return usage("-sweep: %v", err)
		}
	}
	if *threads != "" {
		if cfg.Threads, err = parseInts(*threads); err != nil {
			return usage("-threads: %v", err)
		}
	}

	rep, err := runFig(cfg.WithDefaults())
	if err != nil {
		fmt.Fprintf(stderr, "hartbench: %v\n", err)
		return 1
	}
	rep.FprintTable(stdout)
	if *chart {
		rep.FprintCharts(stdout)
	}
	if *fig == "all" || *fig == "summary" {
		bench.FprintSummary(stdout, bench.Summarise(rep))
	}
	return 0
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

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
