package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// runResult is the contract's result line, as a child run printed it.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process — its own heap, its own
// GOMAXPROCS — and returns its report text and parsed result line.
func runChild(cfg *config, workload string, seed int64) (string, *runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace),
		"-seconds", fmt.Sprint(cfg.seconds), "-block-ms", fmt.Sprint(cfg.blockMs),
		"-records", fmt.Sprint(cfg.records),
		"-hartd", cfg.hartd, "-tmp", cfg.tmp, "-out", cfg.out,
	}
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = cfg.stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	text := strings.TrimRight(string(out), "\n")
	i := strings.LastIndexByte(text, '\n')
	var res runResult
	if err := json.Unmarshal([]byte(text[i+1:]), &res); err != nil {
		return text, nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return text[:i+1], &res, nil
}

// runAll runs every workload once, one child process each.
func runAll(cfg *config) int {
	code := 0
	for _, wl := range workloads {
		text, res, err := runChild(cfg, wl.Name, cfg.seed)
		fmt.Fprint(cfg.stdout, text)
		if err != nil {
			fmt.Fprintln(cfg.stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the self-check needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck takes two sets of runs of the same code, A then B, each of
// runs runs per workload with a different seed per run, alternating the
// order of the workloads between rounds. It prints, for every
// <workload>/<metric>, both medians, how much worse B reads than A, the
// spread of each set (interquartile range over median), and the bound, and
// fails when a gap or a spread exceeds the bound. setup_s is exempt from the
// spread check, as in the acceptance rule this mirrors.
func runSelfcheck(cfg *config, runs int) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(cfg.stderr, "benchmark:", err)
		return 1
	}
	raw, err := os.ReadFile(root + "/BENCHMARK.json")
	var bf benchmarkFile
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(cfg.stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}

	// samples[set][workload/metric] = one value per run
	samples := [2]map[string][]float64{{}, {}}
	steal0 := readProcStat()
	for set := 0; set < 2; set++ {
		for round := 0; round < runs; round++ {
			order := append([]workloadDef(nil), workloads...)
			if round%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, wl := range order {
				seed := cfg.seed + int64(set*runs+round)
				_, res, err := runChild(cfg, wl.Name, seed)
				if err != nil {
					fmt.Fprintln(cfg.stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(cfg.stderr, "benchmark: %s seed %d: %d of %d operations failed\n", wl.Name, seed, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					key := wl.Name + "/" + name
					samples[set][key] = append(samples[set][key], v.Value)
				}
				fmt.Fprintf(cfg.stderr, "selfcheck: set %c round %d %s done\n", 'A'+set, round+1, wl.Name)
			}
		}
	}

	fmt.Fprintf(cfg.stdout, "selfcheck: %d runs per workload and set, seeds %d..%d, steal %.2f%%\n",
		runs, cfg.seed, cfg.seed+int64(2*runs-1), stealPct(steal0, readProcStat()))
	fmt.Fprintf(cfg.stdout, "%-36s %12s %12s %8s %9s %9s %7s\n", "workload/metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
	code := 0
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			key := wl.Name + "/" + m.Name
			aq25, a, aq75 := quartiles(samples[0][key])
			bq25, b, bq75 := quartiles(samples[1][key])
			gap := (b - a) / a // how much worse B reads than A
			if m.Better == "higher" {
				gap = -gap
			}
			spreadA, spreadB := (aq75-aq25)/a, (bq75-bq25)/b
			verdict := ""
			if gap > m.Bound {
				verdict = " GAP"
			}
			if m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound) {
				verdict += " SPREAD"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Fprintf(cfg.stdout, "%-36s %12.6g %12.6g %+7.2f%% %8.2f%% %8.2f%% %6.0f%%%s\n",
				key, a, b, 100*gap, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	if code == 0 {
		fmt.Fprintln(cfg.stdout, "selfcheck: every gap and spread within its bound")
	}
	return code
}
