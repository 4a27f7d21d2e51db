package bench

import (
	"fmt"
	"io"
	"sort"
)

// Speedup is one headline comparison (paper Section I: "In the best
// scenarios, HART outperforms WOART, ART+CoW, and FPTree by ...").
type Speedup struct {
	// Baseline is the competitor tree.
	Baseline string
	// Op is the operation.
	Op string
	// Best is the maximum HART advantage over the grid (ratio of
	// baseline latency to HART latency).
	Best float64
	// Worst is the minimum advantage (< 1 means the baseline won there).
	Worst float64
	// BestAt names the workload/latency cell of the Best ratio.
	BestAt string
}

// Summarise derives the Section I headline ratios from the per-op rows of
// Figs. 4-9: each cell compares trees on one op, workload and latency.
func Summarise(rep Report) []Speedup {
	// cell key: op/workload/latency -> tree -> ns/op
	cells := map[string]map[string]float64{}
	for _, r := range rep {
		if r.NsPerOp <= 0 || r.Op == "range" {
			continue
		}
		key := r.Op + "/" + r.Workload + "/" + r.Latency
		if cells[key] == nil {
			cells[key] = map[string]float64{}
		}
		cells[key][r.Tree] = r.NsPerOp
	}
	type agg struct {
		best, worst float64
		bestAt      string
	}
	aggs := map[string]*agg{}
	for key, byTree := range cells {
		hart, ok := byTree["HART"]
		if !ok || hart <= 0 {
			continue
		}
		for tree, ns := range byTree {
			if tree == "HART" {
				continue
			}
			ratio := ns / hart
			var op string
			for i := range key {
				if key[i] == '/' {
					op = key[:i]
					break
				}
			}
			k := tree + "/" + op
			a := aggs[k]
			if a == nil {
				a = &agg{best: ratio, worst: ratio, bestAt: key}
				aggs[k] = a
				continue
			}
			if ratio > a.best {
				a.best, a.bestAt = ratio, key
			}
			if ratio < a.worst {
				a.worst = ratio
			}
		}
	}
	var out []Speedup
	for k, a := range aggs {
		var tree, op string
		for i := range k {
			if k[i] == '/' {
				tree, op = k[:i], k[i+1:]
				break
			}
		}
		out = append(out, Speedup{Baseline: tree, Op: op, Best: a.best, Worst: a.worst, BestAt: a.bestAt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Baseline != out[j].Baseline {
			return out[i].Baseline < out[j].Baseline
		}
		return opOrder(out[i].Op) < opOrder(out[j].Op)
	})
	return out
}

// opOrder gives the paper's insertion/search/update/deletion order.
func opOrder(op string) int {
	switch op {
	case "insert":
		return 0
	case "search":
		return 1
	case "update":
		return 2
	case "delete":
		return 3
	}
	return 4
}

// FprintSummary renders the headline table.
func FprintSummary(w io.Writer, sps []Speedup) {
	fmt.Fprintf(w, "\n== Section I headline: best-case HART speedups ==\n")
	fmt.Fprintf(w, "%-10s %-8s %8s %8s   %s\n", "baseline", "op", "best", "worst", "best at")
	for _, s := range sps {
		fmt.Fprintf(w, "%-10s %-8s %7.1fx %7.1fx   %s\n", s.Baseline, s.Op, s.Best, s.Worst, s.BestAt)
	}
}
