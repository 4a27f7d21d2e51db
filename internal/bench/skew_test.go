package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSkewSmoke runs the skew comparison at toy scale and checks the
// report's shape: every mode × thread cell present, the elastic cells
// actually split, and the fraction maps filled.
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
	if len(rep.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(rep.Results))
	}
	cells := map[string]SkewResult{}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.MOPS <= 0 || r.Op != "Put" || r.Threads != 2 {
			t.Fatalf("bad cell: %+v", r)
		}
		cells[r.Mode] = r
	}
	for _, mode := range []string{"uniform", "fixed", "elastic"} {
		if _, ok := cells[mode]; !ok {
			t.Fatalf("missing cell %s", mode)
		}
	}
	// The zipfian hot shard must cross the scaled threshold and split.
	if e := cells["elastic"]; e.Splits == 0 || e.MaxDepth <= 2 {
		t.Fatalf("elastic run did not split: %+v", e)
	}
	if rep.RecoveredFrac["t2"] <= 0 || rep.FixedFrac["t2"] <= 0 {
		t.Fatalf("fraction maps missing: %v %v", rep.RecoveredFrac, rep.FixedFrac)
	}

	var tbl bytes.Buffer
	rep.FprintTable(&tbl)
	for _, want := range []string{"elastic", "fixed", "uniform", "elastic/uniform t2"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
}
