package bench

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/casl-sdsu/hart/internal/latency"
	"github.com/casl-sdsu/hart/internal/workload"
)

// tinyConfig keeps harness smoke tests fast: small record counts.
func tinyConfig() Config {
	return Config{
		Records:      2000,
		DictRecords:  2000,
		RangeRecords: 1000,
		MixedOps:     2000,
		ScaleSweep:   []int{500, 1000},
		Threads:      []int{1, 2},
	}.WithDefaults()
}

// rowKey is a row's identity: every field but the measurements.
func rowKey(r Row) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%d", r.Figure, r.Workload, r.Latency, r.Tree, r.Op, r.Threads)
}

// checkRows fails unless rep holds exactly the rows keyed by want, in
// any order.
func checkRows(t *testing.T, rep Report, want []string) {
	t.Helper()
	got := make([]string, len(rep))
	for i, r := range rep {
		got[i] = rowKey(r)
	}
	sort.Strings(got)
	want = slices.Clone(want)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("row keys:\n got %q\nwant %q", got, want)
	}
}

// paperLatencies are the paper's three PM configurations.
var paperLatencies = []string{"300/100", "300/300", "600/300"}

// basicGrid keys the rows of one of Figs. 4-7: the three key sets, each a
// sub-figure, × the three latencies × trees.
func basicGrid(fig, op string, trees ...string) []string {
	var keys []string
	for _, wl := range []struct{ letter, name string }{{"a", "Dictionary"}, {"b", "Sequential"}, {"c", "Random"}} {
		for _, lat := range paperLatencies {
			for _, tree := range trees {
				keys = append(keys, fmt.Sprintf("%s%s|%s|%s|%s|%s|1", fig, wl.letter, wl.name, lat, tree, op))
			}
		}
	}
	return keys
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Records == 0 || c.ValueSize != 8 || len(c.Trees) != 4 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestNewIndexAllTrees(t *testing.T) {
	for _, tree := range TreeNames {
		ix, err := NewIndex(tree, latency.Config300x300(), 1000)
		if err != nil {
			t.Fatalf("%s: %v", tree, err)
		}
		if ix.Name() != tree {
			t.Fatalf("NewIndex(%q).Name() = %q", tree, ix.Name())
		}
		if err := ix.Put([]byte("smoke"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		ix.Close()
	}
	if _, err := NewIndex("nope", latency.Off(), 10); err == nil {
		t.Fatal("unknown tree accepted")
	}
}

func TestFig4SmokeAndPenaltyOrdering(t *testing.T) {
	c := tinyConfig()
	c.Trees = []string{"HART", "WOART"}
	rep, err := RunFig4(c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rep, basicGrid("4", "insert", "HART", "WOART"))
	// Per-op latency should grow with the PM write latency for the pure-PM
	// tree (more persists => more penalty). On a shared machine the smoke
	// sizes are too small for that ordering to hold every run, so the ratio
	// is logged; the paper run checks it.
	var woart300, woart600 float64
	for _, r := range rep {
		if r.Tree == "WOART" && r.Workload == "Random" {
			switch r.Latency {
			case "300/300":
				woart300 = r.NsPerOp
			case "600/300":
				woart600 = r.NsPerOp
			}
		}
	}
	for _, r := range rep {
		if r.NsPerOp <= 0 {
			t.Fatalf("non-positive ns/op: %+v", r)
		}
	}
	t.Logf("WOART Random insert, 600/300 over 300/300: %.2f (%.0f vs %.0f ns/op)", woart600/woart300, woart600, woart300)
}

func TestFig5Through7Smoke(t *testing.T) {
	c := tinyConfig()
	c.Trees = []string{"HART", "FPTree"}
	for _, f := range []struct {
		fig, op string
		run     func(Config) (Report, error)
	}{{"5", "search", RunFig5}, {"6", "update", RunFig6}, {"7", "delete", RunFig7}} {
		rep, err := f.run(c)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, rep, basicGrid(f.fig, f.op, "HART", "FPTree"))
		for _, r := range rep {
			if r.NsPerOp <= 0 {
				t.Fatalf("non-positive ns/op: %+v", r)
			}
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	c := tinyConfig()
	c.Trees = []string{"HART"}
	rep, err := RunFig8(c)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sweep points × 1 tree × 4 ops, each op a sub-figure.
	var want []string
	for range c.ScaleSweep {
		for _, sub := range []string{"a|insert", "b|search", "c|update", "d|delete"} {
			letter, op, _ := strings.Cut(sub, "|")
			want = append(want, "8"+letter+"|Random|300/100|HART|"+op+"|1")
		}
	}
	checkRows(t, rep, want)
	for _, r := range rep {
		if r.TotalSec <= 0 {
			t.Fatalf("non-positive total: %+v", r)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	c := tinyConfig()
	c.Trees = []string{"HART", "ART+CoW"}
	rep, err := RunFig9(c)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, mix := range []string{"9a|Read-Intensive", "9b|Read-Modified-Write", "9c|Write-Intensive"} {
		for _, lat := range paperLatencies {
			for _, tree := range c.Trees {
				want = append(want, mix+"|"+lat+"|"+tree+"|mixed|1")
			}
		}
	}
	checkRows(t, rep, want)
}

func TestFig10aSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10a(c)
	if err != nil {
		t.Fatal(err)
	}
	// 3 latencies × (4 trees + HART-scan extra).
	var want []string
	for _, lat := range paperLatencies {
		for _, tree := range []string{"HART", "HART-scan", "WOART", "ART+CoW", "FPTree"} {
			want = append(want, "10a|Sequential|"+lat+"|"+tree+"|range|1")
		}
	}
	checkRows(t, rep, want)
}

func TestFig10bSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10b(c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rep, []string{
		"10b|Sequential||HART|memory|1", "10b|Sequential||WOART|memory|1",
		"10b|Sequential||ART+CoW|memory|1", "10b|Sequential||FPTree|memory|1",
	})
	var hartDRAM, woartDRAM int64 = -1, -1
	for _, r := range rep {
		if r.PMBytes <= 0 {
			t.Fatalf("PM bytes missing: %+v", r)
		}
		switch r.Tree {
		case "HART":
			hartDRAM = r.DRAMBytes
		case "WOART":
			woartDRAM = r.DRAMBytes
		}
	}
	// Paper Fig. 10b: WOART/ART+CoW use no DRAM; HART uses plenty.
	if woartDRAM != 0 {
		t.Fatalf("WOART DRAM = %d, want 0", woartDRAM)
	}
	if hartDRAM <= 0 {
		t.Fatalf("HART DRAM = %d, want > 0", hartDRAM)
	}
}

func TestFig10cSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10c(c)
	if err != nil {
		t.Fatal(err)
	}
	// 2 sweep points × 2 trees × {build, recovery}.
	var want []string
	for range c.ScaleSweep {
		for _, tree := range []string{"HART", "FPTree"} {
			want = append(want, "10c|Random|300/100|"+tree+"|build|1", "10c|Random|300/100|"+tree+"|recovery|1")
		}
	}
	checkRows(t, rep, want)
	// The paper has recovery beat build for both hybrid trees ("their
	// recovery times are shorter than their build times"). At 1 000
	// records both take about a millisecond, too little for the ordering
	// to hold on every run of a shared machine, so the ratio is logged;
	// the paper run checks it.
	times := map[string]float64{}
	for _, r := range rep {
		if r.TotalSec <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
		if r.Records == 1000 {
			times[r.Tree+"/"+r.Op] = r.TotalSec
		}
	}
	for _, tree := range []string{"HART", "FPTree"} {
		t.Logf("%s at 1 000 records, recovery over build: %.2f (%.4fs vs %.4fs)", tree,
			times[tree+"/recovery"]/times[tree+"/build"], times[tree+"/recovery"], times[tree+"/build"])
	}
}

func TestFig10dSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10d(c)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, threads := range c.Threads {
		for _, op := range []string{"insert", "search", "update", "delete"} {
			want = append(want, fmt.Sprintf("10d|Random|300/100|HART|%s|%d", op, threads))
		}
	}
	checkRows(t, rep, want)
	for _, r := range rep {
		if r.MIOPS <= 0 {
			t.Fatalf("non-positive MIOPS: %+v", r)
		}
	}
}

func TestReportTableRendering(t *testing.T) {
	rep := Report{
		{Figure: "skew", Workload: "zipfian", Tree: "HART", Op: "insert", Threads: 2, MIOPS: 1},
		{Figure: "10b", Workload: "Sequential", Tree: "HART", PMBytes: 1 << 20, DRAMBytes: 2 << 20},
		{Figure: "A1", Workload: "kh=2", Latency: "300/300", Tree: "HART", Op: "insert", NsPerOp: 900},
		{Figure: "10d", Workload: "Random", Latency: "300/100", Tree: "HART", Op: "search", Threads: 8, MIOPS: 12.5},
		{Figure: "4a", Workload: "Dictionary", Latency: "300/100", Tree: "HART", Op: "insert", NsPerOp: 1234},
		{Figure: "8a", Workload: "Random", Latency: "300/100", Tree: "HART", Op: "insert", Records: 100, TotalSec: 1.5},
	}
	var buf bytes.Buffer
	rep.FprintTable(&buf)
	out := buf.String()
	for _, want := range []string{"MIOPS", "PM MB", "us/op", "total s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Figures print in the paper's order, not as strings sort.
	var figs []string
	for _, line := range strings.Split(out, "\n") {
		if fig, ok := strings.CutPrefix(line, "== Figure "); ok {
			figs = append(figs, strings.TrimSuffix(fig, " =="))
		}
	}
	if want := []string{"4a", "8a", "10b", "10d", "A1", "skew"}; !slices.Equal(figs, want) {
		t.Fatalf("figure order %q, want %q", figs, want)
	}
}

func TestShuffledDeterministic(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	a := shuffled(keys, 1)
	b := shuffled(keys, 1)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("shuffle not deterministic")
		}
	}
	diff := false
	for i, k := range shuffled(keys, 2) {
		if !bytes.Equal(k, a[i]) {
			diff = true
		}
	}
	if !diff {
		t.Log("warning: two seeds produced identical shuffles (possible but unlikely)")
	}
}

func TestAblationsSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunAblations(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep {
		if r.NsPerOp <= 0 {
			t.Fatalf("non-positive ns/op: %+v", r)
		}
	}
	var want []string
	// A1: 3 kh values × {insert, search}; the ART counts are those of
	// 2 000 Random keys at the default seed.
	for _, kh := range []string{"kh=1 (62 ARTs)", "kh=2 (1563 ARTs)", "kh=3 (1987 ARTs)"} {
		want = append(want, "A1|"+kh+"|300/300|HART|insert|1", "A1|"+kh+"|300/300|HART|search|1")
	}
	// A2: the spans that fit in 2 000 records.
	for _, span := range []string{"span=100", "span=1000"} {
		want = append(want, "A2|"+span+"|300/300|HART|per-key|1", "A2|"+span+"|300/300|HART|native-scan|1")
	}
	for _, vs := range []string{"value=8B", "value=16B"} {
		want = append(want, "A3|"+vs+"|300/300|HART|insert|1", "A3|"+vs+"|300/300|HART|update|1")
	}
	checkRows(t, rep, want)
}

func TestSummariseHeadline(t *testing.T) {
	rep := Report{
		{Workload: "Random", Latency: "300/300", Tree: "HART", Op: "insert", NsPerOp: 100},
		{Workload: "Random", Latency: "300/300", Tree: "WOART", Op: "insert", NsPerOp: 410},
		{Workload: "Dictionary", Latency: "300/100", Tree: "HART", Op: "insert", NsPerOp: 200},
		{Workload: "Dictionary", Latency: "300/100", Tree: "WOART", Op: "insert", NsPerOp: 220},
		{Workload: "Random", Latency: "300/300", Tree: "HART", Op: "search", NsPerOp: 100},
		{Workload: "Random", Latency: "300/300", Tree: "WOART", Op: "search", NsPerOp: 90},
		{Workload: "Write-Intensive", Latency: "300/100", Tree: "HART", Op: "mixed", NsPerOp: 100},
		{Workload: "Write-Intensive", Latency: "300/100", Tree: "WOART", Op: "mixed", NsPerOp: 250},
		{Workload: "Sequential", Latency: "300/100", Tree: "HART", Op: "range", NsPerOp: 100},
		{Workload: "Sequential", Latency: "300/100", Tree: "WOART", Op: "range", NsPerOp: 300},
	}
	sps := Summarise(rep)
	if len(sps) != 3 {
		t.Fatalf("speedups = %d, want 3 (insert, search, mixed; no range)", len(sps))
	}
	if sps[0].Op != "insert" || sps[0].Best != 4.1 || sps[0].Worst != 1.1 {
		t.Fatalf("insert summary = %+v", sps[0])
	}
	if sps[1].Op != "search" || sps[1].Best != 0.9 {
		t.Fatalf("search summary = %+v", sps[1])
	}
	if sps[2].Op != "mixed" || sps[2].Best != 2.5 || sps[2].BestAt != "mixed/Write-Intensive/300/100" {
		t.Fatalf("mixed summary = %+v", sps[2])
	}
}

func TestChartsRender(t *testing.T) {
	rep := Report{
		{Figure: "4a", Workload: "Dictionary", Latency: "300/100", Tree: "HART", Op: "insert", NsPerOp: 1000},
		{Figure: "4a", Workload: "Dictionary", Latency: "300/100", Tree: "WOART", Op: "insert", NsPerOp: 4000},
		{Figure: "10b", Workload: "Sequential", Tree: "HART", Op: "memory", PMBytes: 10 << 20, DRAMBytes: 20 << 20},
		{Figure: "10c", Workload: "Random", Tree: "HART", Op: "build", Records: 100, TotalSec: 2},
		{Figure: "10d", Workload: "Random", Tree: "HART", Op: "search", Threads: 4, MIOPS: 3.5},
	}
	var buf bytes.Buffer
	rep.FprintCharts(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 4a", "####", "us/op", "MB", "MIOPS", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// The best (lowest) us/op bar is starred; HART's bar must be shorter.
	hartLine, woartLine := "", ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "HART") && strings.Contains(l, "us/op") {
			hartLine = l
		}
		if strings.Contains(l, "WOART") && strings.Contains(l, "us/op") {
			woartLine = l
		}
	}
	if strings.Count(hartLine, "#") >= strings.Count(woartLine, "#") {
		t.Fatalf("bar lengths wrong:\n%s\n%s", hartLine, woartLine)
	}
	if !strings.Contains(hartLine, "*") {
		t.Fatalf("winner not starred: %s", hartLine)
	}
}

// TestPMTrafficPinned replays one fixed history on each tree through
// NewIndex with PM latency off — 20 000 Random keys (seed 20190520)
// inserted with 8-byte values, searched, updated to 16-byte values and
// deleted, each phase in key order — and pins the arena's counters. Every
// figure's PM charge is a function of these counts, so a change to any
// tree's PM traffic fails here and must say why.
func TestPMTrafficPinned(t *testing.T) {
	type traffic struct{ persists, lines, reads, bytes int64 }
	want := map[string]traffic{
		"HART":    {189275, 196936, 60000, 3052543},
		"WOART":   {428888, 451242, 1521234, 3874450},
		"ART+CoW": {802103, 3184457, 2325483, 195700665},
		"FPTree":  {148233, 190658, 518063, 1879233},
	}
	keys := workload.Random(20000, 20190520)
	for _, tree := range TreeNames {
		ix, err := NewIndex(tree, latency.Off(), len(keys))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			op  string
			val []byte
		}{{"insert", []byte("8 bytes!")}, {"search", nil}, {"update", []byte("sixteen bytes!!!")}, {"delete", nil}} {
			if err := applyOp(ix, p.op, keys, p.val); err != nil {
				t.Fatal(err)
			}
		}
		s := ix.Arena().Stats()
		if got := (traffic{s.Persists, s.PersistedLines, s.Reads, s.BytesWritten}); got != want[tree] {
			t.Errorf("%s: persists, persisted lines, reads, bytes written = %v, want %v", tree, got, want[tree])
		}
		ix.Close()
	}
}
