package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ahs/internal/service"
	"ahs/internal/sweep"
)

const exampleSpec = "../../docs/sweep-example.json"

// TestRunInProcess drives the in-process mode end to end: the example
// design's six points complete, the CSV table and the HTML report are
// written, and every point's curve is bit-identical to evaluating its
// scenario alone.
func TestRunInProcess(t *testing.T) {
	dir := t.TempDir()
	csvPath, htmlPath := filepath.Join(dir, "sweep.csv"), filepath.Join(dir, "sweep.html")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-spec", exampleSpec, "-csv", csvPath, "-html", htmlPath}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "6 points") || !strings.Contains(out.String(), "6 completed") {
		t.Fatalf("summary does not report 6 completed points:\n%s", out.String())
	}
	if csv, err := os.ReadFile(csvPath); err != nil || len(csv) == 0 {
		t.Fatalf("CSV table: %d bytes, %v", len(csv), err)
	}
	if html, err := os.ReadFile(htmlPath); err != nil || !bytes.Contains(html, []byte("<svg")) {
		t.Fatalf("HTML report without <svg (%d bytes, %v)", len(html), err)
	}

	sp, err := sweep.LoadFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	design, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := runLocal(context.Background(), sp, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(design.Points) {
		t.Fatalf("%d point results, want %d", len(results), len(design.Points))
	}
	for i, pr := range results {
		if pr.Result == nil {
			t.Fatalf("point %d (%s): %s without a result: %s", i, pr.Label, pr.Status, pr.Error)
		}
		want, err := service.Evaluate(context.Background(), design.Points[i].Scenario, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%b %b %b %d", pr.Result.Unsafety, pr.Result.CILo, pr.Result.CIHi, pr.Result.Batches)
		if solo := fmt.Sprintf("%b %b %b %d", want.Unsafety, want.CILo, want.CIHi, want.Batches); got != solo {
			t.Errorf("point %d (%s): sweep curve %s, evaluated alone %s", i, pr.Label, got, solo)
		}
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"name":"bad","design":"grid","base":{"n":2,"tripHours":[1],"batches":100,"seed":1},` +
		`"axes":[{"param":"strategy","strings":["XX"]}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-spec", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "strategy=XX") {
		t.Fatalf("a design with strategy XX: error %v, output:\n%s", err, out.String())
	}
}
