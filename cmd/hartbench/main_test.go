package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunPrintsFigure10b runs the cheapest figure at toy scale and checks
// that its table names all four trees.
func TestRunPrintsFigure10b(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "10b", "-records", "500", "-quiet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== Figure 10b ==", "HART", "WOART", "ART+CoW", "FPTree"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet wrote to stderr:\n%s", stderr.String())
	}
}

// TestRunRefusesBadArguments checks that an unknown figure, distribution
// or flag (the latency mode is the figure's, not a flag) and a zero
// thread count each exit 2 with a message naming them, before running
// anything.
func TestRunRefusesBadArguments(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "11"}, `unknown -fig "11"`},
		{[]string{"-dist", "pareto", "-fig", "10b", "-records", "500"}, `unknown -dist "pareto"`},
		{[]string{"-mode", "account", "-fig", "10b", "-records", "500"}, "flag provided but not defined: -mode"},
		{[]string{"-threads", "0", "-fig", "10d", "-records", "500"}, `-threads: bad count "0"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed a table:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%q: stderr lacks %q:\n%s", c.args, c.want, stderr.String())
		}
	}
}
