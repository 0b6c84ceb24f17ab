// Command perfbench is the repository's benchmark. It runs one named
// workload the way users run the code — the memosim CLI and the
// memosim -serve daemon, built from the checkout — checks every output
// byte against a reference, and prints the end-to-end metrics. With
// -trace 1 it instead builds the same passes in-process through the
// experiments/engine API, wraps every capture, sink, plan, finish and
// render call in its own timers, and prints the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds memosim
// and this program first:
//
//	bash perfbench/run.sh --workload tiny-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict. Attempted counts the
// checked outputs (experiment results of a CLI pass, HTTP responses);
// Failed counts those that were missing, non-200 or not byte-identical
// to their reference. failed/attempted is the workload's failed_ratio.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// set records a metric; a value with no samples behind it (NaN) is left
// out rather than reported.
func (r *result) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one checked output.
func (r *result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// bench is one invocation's settings.
type bench struct {
	memosimBin string // the memosim binary built from the checkout
	root       string // the checkout (the working directory)
	dir        string // this run's scratch directory, removed on exit
	seed       uint64
	seconds    float64
}

// workload is one named benchmark input: run measures the end-to-end
// metrics, traced the per-layer ones. BENCHMARK.json and README.md say
// why each workload is there.
type workload struct {
	run    func(*bench) (*result, error)
	traced func(*bench) (*result, error)
}

var workloads = map[string]workload{
	"tiny-cold": {
		run:    runTinyCold,
		traced: traceTinyCold,
	},
	"quick-warm": {
		run:    runQuickWarm,
		traced: traceQuickWarm,
	},
	"serve-tiny": {
		run:    runServeTiny,
		traced: traceServeTiny,
	},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 runs the traced per-layer pass")
	memosim := flag.String("memosim", "", "memosim binary built from the checkout")
	out := flag.String("out", ".bench_build", "directory for scratch files and span dumps")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *memosim == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -memosim, -seconds > 0, -trace 0|1 and -workload one of %s\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-"+*name+"-")
	if err == nil {
		dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{memosimBin: *memosim, root: root, dir: dir, seed: *seed, seconds: *seconds}

	host := hostInfo(root)
	hb, _ := json.Marshal(host) // plain strings and ints cannot fail to encode
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("workload: %s; seed %d, %g s, trace %d\n", *name, *seed, *seconds, *traceFlag)

	measure := w.run
	if *traceFlag == 1 {
		measure = w.traced
	}
	res, err := measure(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d outputs failed their check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric by name with its unit, plus the
// failed_ratio that the final line carries as attempted/failed.
func printTable(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-28s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Printf("  %-28s %14s ratio (%d failed of %d checked)\n", "failed_ratio",
		strconv.FormatFloat(float64(r.Failed)/float64(max(r.Attempted, 1)), 'g', 6, 64), r.Failed, r.Attempted)
}

// path joins elements under the run's scratch directory.
func (b *bench) path(elem ...string) string {
	return filepath.Join(append([]string{b.dir}, elem...)...)
}
