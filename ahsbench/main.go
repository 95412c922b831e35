// Command ahsbench is the repository benchmark. It drives cmd/ahs-serve,
// run as its own process at production defaults, with three seeded
// closed-loop workloads over one loopback connection, checks every output,
// and prints each end-to-end metric with its unit and sample count. With
// -trace 1 it runs the workload a second time against the same serving
// stack built in-process, records spans around the calls into each layer
// and prints per-layer self times and metrics. See README.md.
//
// It is built and started by run.sh from the repository root:
//
//	bash ahsbench/run.sh --workload hot-reads --seed 1 --seconds 10 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	root     string // repository checkout
	serve    string // ahs-serve binary built from it
}

var workloads = []string{"paper-figure", "sweep-writes", "hot-reads"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ahsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "run length: inputs are sized to take about this long")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout (run.sh passes it)")
	fs.StringVar(&o.serve, "serve", "", "ahs-serve binary built from the checkout (run.sh passes it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	switch {
	case o.workload != "all" && !slices.Contains(workloads, o.workload):
		fmt.Fprintf(stderr, "ahsbench: -workload must be one of %s or all\n", strings.Join(workloads, ", "))
		return 2
	case o.serve == "":
		fmt.Fprintln(stderr, "ahsbench: -serve is required; start the benchmark with ahsbench/run.sh")
		return 2
	case o.seconds < 1 || (trace != 0 && trace != 1):
		fmt.Fprintln(stderr, "ahsbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fmt.Fprintln(stderr, "ahsbench:", err)
		return 2
	}
	o.root = root
	cleanStaleRuns(o.root)

	fmt.Fprintf(stdout, "machine: %s\n", machine())
	var results []*result
	for _, name := range names {
		res, err := runWorkload(ctx, &o, name)
		if err != nil {
			fmt.Fprintf(stderr, "ahsbench: %s: %v\n", name, err)
			return 1
		}
		printResult(stdout, res, o.trace)
		results = append(results, res)
	}
	line, correct := summaryLine(results, o.trace, len(names) > 1)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// machine describes where the numbers were measured.
func machine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s GOMAXPROCS=%d", runtime.NumCPU(), cpu, runtime.Version(), runtime.GOMAXPROCS(0))
}

// cleanStaleRuns removes run directories left by benchmark processes that
// no longer exist (a run killed before its own cleanup).
func cleanStaleRuns(root string) {
	dirs, _ := filepath.Glob(filepath.Join(root, ".bench_build", "runs", "*-*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.SplitN(filepath.Base(d), "-", 2)[0])
		if err != nil || pid == os.Getpid() {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			os.RemoveAll(d)
		}
	}
}

// printResult writes one workload's human-readable report.
func printResult(w io.Writer, res *result, trace bool) {
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%d\n", res.w.name, res.w.seed, res.w.seconds)
	fmt.Fprintf(w, "why: %s\n", res.w.why)
	for _, s := range res.shares {
		fmt.Fprintf(w, "measured: %s\n", s)
	}
	fmt.Fprintf(w, "operations: attempted %d, failed %d\n", res.attempted, res.failed)
	for _, r := range res.reasons {
		fmt.Fprintf(w, "  failure: %s\n", r)
	}
	for _, f := range res.flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
	printMetrics(w, "end-to-end (untraced subprocess)", res.named)
	gated := make([]string, len(res.endToEnd))
	for i, m := range res.endToEnd {
		gated[i] = m.name
	}
	fmt.Fprintf(w, "   BENCHMARK.json end_to_end: %s\n", strings.Join(gated, ", "))
	if !trace {
		// The exact counts come from the untraced run alone.
		var counts []metric
		for _, m := range res.perLayer {
			if strings.HasPrefix(m.note, "C ") {
				counts = append(counts, m)
			}
		}
		printMetrics(w, "exact counts (untraced run; the traced run adds timings)", counts)
		return
	}
	printMetrics(w, "traced in-process run, same inputs", res.traced)
	fmt.Fprintf(w, "-- layer self time, traced run (%s)\n", res.spansPath)
	fmt.Fprintf(w, "   %-26s %9s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "mean_us")
	for _, lt := range res.layers {
		fmt.Fprintf(w, "   %-26s %9d %12.3f %12.3f %12.2f\n", lt.Name, lt.Count,
			float64(lt.Total.Nanoseconds())/1e6, float64(lt.Self.Nanoseconds())/1e6, lt.meanMicros())
	}
	printMetrics(w, "per-layer (T traced spans, C untraced counts)", res.perLayer)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "-- %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "   %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// jsonMetric is one entry of the summary line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders the final JSON line: the end-to-end metrics, or the
// per-layer ones with trace. With several workloads every name is
// prefixed with its workload.
func summaryLine(results []*result, trace, prefixed bool) (string, bool) {
	var total outcome
	metrics := make(map[string]jsonMetric)
	for _, res := range results {
		total.add(res.outcome)
		set := res.endToEnd
		if trace {
			set = res.perLayer
		}
		for _, m := range set {
			name := m.name
			if prefixed {
				name = res.w.name + "/" + name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// JSON has no NaN; a metric that could not be measured
				// makes the run incorrect rather than the line unparsable.
				total.fail("%s: %s is not a number", res.w.name, m.name)
				v = 0
			}
			metrics[name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	correct := total.failed == 0 && total.attempted > 0
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, total.attempted, total.failed, metrics})
	return string(b), correct
}
