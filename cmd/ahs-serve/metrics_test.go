package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestServeMetricsSurfaceGolden pins the metric families one fully wired
// instance exports: every component that registers on the shared registry
// (service, sweep, cluster coordinator and journal, result store, fleet
// node, tracer) runs, one evaluation finishes, and the sorted # HELP and
// # TYPE lines of GET /metrics must equal testdata/metrics.golden. The
// runtime and build-info families depend on the toolchain and are left
// out. Regenerate the golden only for an intended change to the metric
// surface; the test logs the lines it read.
func TestServeMetricsSurfaceGolden(t *testing.T) {
	dir := t.TempDir()
	addr := reserveAddr(t)
	base, stop := startServe(t, []string{
		"-addr", addr,
		"-workers", "1",
		"-cluster",
		"-journal-dir", filepath.Join(dir, "journal"),
		"-store-dir", filepath.Join(dir, "store"),
		"-fleet",
		"-advertise-url", "http://" + addr,
		"-fleet-heartbeat", "50ms",
		"-trace-sample", "1",
	})
	defer stop()
	waitHealthy(t, base)
	evaluateToDone(t, base,
		`{"name":"metrics-golden","n":2,"lambdaPerHour":0.02,"tripHours":[0.5,1.5],"batches":300,"seed":31}`)

	code, data := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var lines []string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "#" || (f[1] != "HELP" && f[1] != "TYPE") {
			continue
		}
		if strings.HasPrefix(f[2], "ahs_runtime_") || f[2] == "ahs_build_info" {
			continue
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metric surface differs from testdata/metrics.golden\ngot:\n%s", got)
	}
}
