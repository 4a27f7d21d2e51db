package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSkewSmoke runs the skew comparison at toy scale and checks the
// report's shape: every mode × thread cell present and the fraction map
// filled.
func TestRunSkewSmoke(t *testing.T) {
	c := Config{Records: 6000, PathThreads: []int{2}}.WithDefaults()
	c.Out = nil
	rep, err := RunSkew(c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 6000 || rep.Theta != SkewTheta || rep.RankUniverse != SkewRankUniverse {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(rep.Results))
	}
	cells := map[string]SkewResult{}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.MOPS <= 0 || r.Op != "Put" || r.Threads != 2 {
			t.Fatalf("bad cell: %+v", r)
		}
		cells[r.Mode] = r
	}
	for _, mode := range []string{"uniform", "zipfian"} {
		if _, ok := cells[mode]; !ok {
			t.Fatalf("missing cell %s", mode)
		}
	}
	if rep.ZipfianFrac["t2"] <= 0 {
		t.Fatalf("fraction map missing: %v", rep.ZipfianFrac)
	}

	var tbl bytes.Buffer
	rep.FprintTable(&tbl)
	for _, want := range []string{"zipfian", "uniform", "zipfian/uniform t2"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
}
