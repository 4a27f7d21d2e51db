package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark where a run
// re-executes itself: as restart's child that exits without Close, or as an
// idle spinner.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-dirty-child" || a == "-idle-spin" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors BENCHMARK.json's top-level keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram: every name BENCHMARK.json declares is one
// the program measures, with the same unit and direction, and the reverse.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	declared := map[string]metricDef{}
	for _, m := range bj.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(declared) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(declared), len(endToEnd))
	}
	for _, m := range bj.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	program := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(declared) != len(program) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program measures %d", len(declared), len(program))
	}
	for _, m := range program {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed characters", m.Name, m.Unit)
		}
		if got, ok := declared[m.Name]; !ok || got != m {
			t.Errorf("metric %s: program has %+v, BENCHMARK.json %+v", m.Name, m, got)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// smokeRun runs one workload in this process at 2,000 records with a timed
// phase of 30 blocks of 5 ms and returns its parsed result line.
func smokeRun(t *testing.T, dir, hartd, workload string, trace bool) *runResult {
	t.Helper()
	args := []string{
		"-workload", workload, "-seed", "7", "-records", "2000", "-seconds", "0.15", "-block-ms", "5",
		"-tmp", dir, "-out", dir, "-hartd", hartd,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\n%s%s", workload, trace, code, stdout.String(), stderr.String())
	}
	text := strings.TrimRight(stdout.String(), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", workload, trace, res.Correct, res.Failed, res.Attempted, text)
	}
	return &res
}

// TestSmoke runs every workload small, untraced twice and traced once, and
// checks what a full run promises: every declared metric printed and no
// other, no failed operation, exact counts repeating for the same seed, and
// a span file in which every child lies inside its parent.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped under -short")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	hartd := filepath.Join(dir, "hartd")
	if err := buildHartd(".", hartd); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		a := smokeRun(t, dir, hartd, wl.Name, false)
		b := smokeRun(t, dir, hartd, wl.Name, false)
		if len(a.Metrics) != len(bj.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics printed, %d declared", wl.Name, len(a.Metrics), len(bj.EndToEnd))
		}
		for _, m := range bj.EndToEnd {
			v, ok := a.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value == 0 {
				t.Errorf("%s/%s: printed %+v (present=%v), declared unit %s", wl.Name, m.Name, v, ok, m.Unit)
			}
		}
		if wl.Name != "wire-mixed" { // the daemon's coalescing depends on timing
			for _, m := range []string{"pm_persists_per_op", "pm_reads_per_op", "pm_bytes_per_user_byte", "dram_bytes_per_record"} {
				if a.Metrics[m].Value != b.Metrics[m].Value {
					t.Errorf("%s/%s: %v then %v for the same seed", wl.Name, m, a.Metrics[m].Value, b.Metrics[m].Value)
				}
			}
		}

		tr := smokeRun(t, dir, hartd, wl.Name, true)
		if len(tr.Metrics) != len(bj.PerLayer) {
			t.Errorf("%s: %d per-layer metrics printed, %d declared", wl.Name, len(tr.Metrics), len(bj.PerLayer))
		}
		for _, m := range bj.PerLayer {
			if v, ok := tr.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s/%s: printed %+v (present=%v), declared unit %s", wl.Name, m.Name, v, ok, m.Unit)
			}
		}
		checkSpans(t, filepath.Join(dir, "trace-"+wl.Name+".jsonl"))
	}
}

// checkSpans parses a span file: ids are line numbers, a child follows its
// parent, lies inside it and shares its request id.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, len(spans)+1, err)
		}
		if int(s.ID) != len(spans) || s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent >= 0 {
			if s.Parent >= s.ID {
				t.Fatalf("%s: span %d precedes its parent %d", path, s.ID, s.Parent)
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
				t.Errorf("%s: span %+v outside its parent %+v", path, s, p)
			}
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
}
