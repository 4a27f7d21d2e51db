package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/casl-sdsu/hart/internal/latency"
)

// tinyConfig keeps harness smoke tests fast: latency accounting instead of
// spinning, small record counts.
func tinyConfig() Config {
	return Config{
		Records:      2000,
		DictRecords:  2000,
		RangeRecords: 1000,
		MixedOps:     2000,
		Mode:         latency.ModeAccount,
		ScaleSweep:   []int{500, 1000},
		Threads:      []int{1, 2},
	}.WithDefaults()
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Records == 0 || c.ValueSize != 8 || len(c.Trees) != 4 || c.Mode != latency.ModeSpin {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestNewIndexAllTrees(t *testing.T) {
	for _, tree := range TreeNames {
		ix, err := NewIndex(tree, latency.Config300x300(), latency.ModeAccount, 1000)
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
	if _, err := NewIndex("nope", latency.Off(), latency.ModeOff, 10); err == nil {
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
	// 3 workloads × 3 latencies × 2 trees.
	if len(rep) != 18 {
		t.Fatalf("fig4 rows = %d, want 18", len(rep))
	}
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
	for _, fn := range []func(Config) (Report, error){RunFig5, RunFig6, RunFig7} {
		rep, err := fn(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep) != 18 {
			t.Fatalf("rows = %d, want 18", len(rep))
		}
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
	// 2 sweep points × 1 tree × 4 ops.
	if len(rep) != 8 {
		t.Fatalf("fig8 rows = %d, want 8", len(rep))
	}
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
	if len(rep) != 3*3*2 {
		t.Fatalf("fig9 rows = %d", len(rep))
	}
}

func TestFig10aSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10a(c)
	if err != nil {
		t.Fatal(err)
	}
	// 3 latencies × (4 trees + HART-scan extra).
	if len(rep) != 15 {
		t.Fatalf("fig10a rows = %d, want 15", len(rep))
	}
}

func TestFig10bSmoke(t *testing.T) {
	c := tinyConfig()
	rep, err := RunFig10b(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep) != 4 {
		t.Fatalf("fig10b rows = %d", len(rep))
	}
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
	if len(rep) != 8 {
		t.Fatalf("fig10c rows = %d", len(rep))
	}
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
	if len(rep) != 2*4 {
		t.Fatalf("fig10d rows = %d", len(rep))
	}
	for _, r := range rep {
		if r.MIOPS <= 0 {
			t.Fatalf("non-positive MIOPS: %+v", r)
		}
	}
}

func TestReportTableRendering(t *testing.T) {
	rep := Report{
		{Figure: "4a", Workload: "Dictionary", Latency: "300/100", Tree: "HART", Op: "insert", NsPerOp: 1234},
		{Figure: "10b", Workload: "Sequential", Tree: "HART", PMBytes: 1 << 20, DRAMBytes: 2 << 20},
		{Figure: "10d", Workload: "Random", Latency: "300/100", Tree: "HART", Op: "search", Threads: 8, MIOPS: 12.5},
		{Figure: "8a", Workload: "Random", Latency: "300/100", Tree: "HART", Op: "insert", Records: 100, TotalSec: 1.5},
	}
	var buf bytes.Buffer
	rep.FprintTable(&buf)
	out := buf.String()
	for _, want := range []string{"Figure 4a", "Figure 10b", "Figure 10d", "Figure 8a", "MIOPS", "PM MB", "us/op", "total s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
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
	figs := map[string]int{}
	for _, r := range rep {
		figs[r.Figure]++
		if r.NsPerOp <= 0 {
			t.Fatalf("non-positive ns/op: %+v", r)
		}
	}
	if figs["A1"] != 6 { // 3 kh values × {insert, search}
		t.Fatalf("A1 rows = %d", figs["A1"])
	}
	if figs["A2"] == 0 || figs["A3"] != 4 || figs["A4"] != 2 {
		t.Fatalf("ablation coverage: %v", figs)
	}
}

func TestSummariseHeadline(t *testing.T) {
	rep := Report{
		{Workload: "Random", Latency: "300/300", Tree: "HART", Op: "insert", NsPerOp: 100},
		{Workload: "Random", Latency: "300/300", Tree: "WOART", Op: "insert", NsPerOp: 410},
		{Workload: "Dictionary", Latency: "300/100", Tree: "HART", Op: "insert", NsPerOp: 200},
		{Workload: "Dictionary", Latency: "300/100", Tree: "WOART", Op: "insert", NsPerOp: 220},
		{Workload: "Random", Latency: "300/300", Tree: "HART", Op: "search", NsPerOp: 100},
		{Workload: "Random", Latency: "300/300", Tree: "WOART", Op: "search", NsPerOp: 90},
	}
	sps := Summarise(rep)
	if len(sps) != 2 {
		t.Fatalf("speedups = %d, want 2", len(sps))
	}
	if sps[0].Op != "insert" || sps[0].Best != 4.1 || sps[0].Worst != 1.1 {
		t.Fatalf("insert summary = %+v", sps[0])
	}
	if sps[1].Op != "search" || sps[1].Best != 0.9 {
		t.Fatalf("search summary = %+v", sps[1])
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
