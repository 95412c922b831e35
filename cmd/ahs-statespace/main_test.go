package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunReducedModel(t *testing.T) {
	if err := run([]string{"-n", "1", "-lambda", "0.01", "-horizon", "4", "-points", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDynamics(t *testing.T) {
	err := run([]string{
		"-n", "1", "-lambda", "0.02", "-join", "4", "-leave", "2", "-change", "1",
		"-horizon", "2", "-points", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-strategy", "QQ"}, io.Discard); err == nil {
		t.Fatal("expected strategy error")
	}
	if err := run([]string{"-lambda", "0"}, io.Discard); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRunStateSpaceCapEnforced(t *testing.T) {
	// n=2 with dynamics exceeds a tiny cap.
	err := run([]string{"-n", "2", "-lambda", "0.01", "-join", "6", "-leave", "2", "-max-states", "10"}, io.Discard)
	if err == nil {
		t.Fatal("expected state-space cap error")
	}
}

// TestRunOutputGolden pins the printed exact results: the state and arc
// counts, the S(t) table, the eventual catastrophe probability and the
// mean time to it. Each golden is the whole output of one command line.
func TestRunOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		// S(10h) 2.944e-13.
		{"n1-lambda1e-7.golden", []string{"-n", "1", "-lambda", "1e-7", "-horizon", "10", "-points", "2"}},
		// S(5h) 1.043e-08, S(10h) 2.100e-08, eventual 7.652e-06.
		{"n2-lambda1e-5.golden", []string{"-n", "2", "-lambda", "1e-5", "-horizon", "10", "-points", "2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s:\ngot:\n%s\nwant:\n%s", path, out.String(), want)
			}
		})
	}
}
