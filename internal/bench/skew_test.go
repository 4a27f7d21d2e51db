package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSkewSmoke runs the skew comparison at toy scale and checks the
// report's shape: one row per distribution × thread count, rendered with
// the zipfian/uniform ratio.
func TestRunSkewSmoke(t *testing.T) {
	c := Config{Records: 6000, Threads: []int{2}}.WithDefaults()
	c.Out = nil
	rep, err := RunSkew(c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rep, []string{"skew|uniform||HART|insert|2", "skew|zipfian||HART|insert|2"})
	for _, r := range rep {
		if r.NsPerOp <= 0 || r.MIOPS <= 0 || r.Records != 6000 {
			t.Fatalf("bad row: %+v", r)
		}
	}

	var tbl bytes.Buffer
	rep.FprintTable(&tbl)
	for _, want := range []string{"Figure skew", "zipfian", "uniform", "zipfian/uniform t2"} {
		if !strings.Contains(tbl.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, tbl.String())
		}
	}
}
