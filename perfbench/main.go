// Command perfbench is the repository's benchmark. It drives four named
// workloads through the public functions of the simulator and runtime
// layers, checks each workload's output, and prints its metrics. Run it
// from the repository root:
//
//	bash perfbench/run.sh --workload sweep-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures one workload end to end for --seconds and
// reports the end-to-end metrics of BENCHMARK.json. With --trace 1 it runs
// the traced suite instead: every workload once, with a span around each
// call the benchmark makes into a layer, reporting the per-layer metrics
// and each workload's residual_frac; the spans are written under
// .bench_build/ at exit. Either way the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// A failed correctness check is printed to standard error; the run then
// reports correct=false with no metrics and exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// workers is the parallelism of every workload: the sweep pools, the
// sharded engine and the runtime's shard loops. The benchmark host has two
// cores; fixing the count keeps runs comparable across hosts.
const workers = 2

// A workload measures one job end to end. Given a tracer it instead runs
// the job once with spans around each layer call, under the root span it
// opens, and reports per-layer metrics.
type workload struct {
	name string
	run  func(seed uint64, budget time.Duration, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"repro-full", runRepro},
	{"sweep-grid", runSweep},
	{"shard-1m", runShard},
	{"dist-100k", runDist},
}

// outcome is what a run reports: the operations attempted and failed, and
// metric values by catalogue name.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// addLayers folds another workload's traced outcome into o: its counts and
// its per-layer metrics. Its end-to-end values are that workload's alone
// and would collide with the other workloads' under one name, so they are
// left out.
func (o *outcome) addLayers(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for k, v := range p.metrics {
		if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == k }) {
			o.metrics[k] = v
		}
	}
}

// checkError is a failed correctness check: the workload produced a wrong
// output, so none of its numbers may be reported.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: repro-full, sweep-grid, shard-1m or dist-100k")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "measurement budget of an untraced run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced suite and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	runtime.GOMAXPROCS(workers)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("host: %s\n", fingerprint())

	want := endToEnd
	var out *outcome
	var err error
	if trace == 1 {
		want = perLayer
		tr := newTracer()
		out, err = runSuite(seed, tr)
		path := fmt.Sprintf(".bench_build/spans-%s-seed%d.json", name, seed)
		if werr := tr.write(path); werr != nil && err == nil {
			err = fmt.Errorf("writing spans: %w", werr)
		}
	} else {
		out, err = w.run(seed, time.Duration(seconds)*time.Second, nil)
	}
	var ce *checkError
	if errors.As(err, &ce) {
		// A wrong output discredits every operation of the run.
		attempted := int64(1)
		if out != nil {
			attempted = max(attempted, out.attempted)
		}
		emit(result{Correct: false, Attempted: attempted, Failed: attempted, Metrics: map[string]metricValue{}})
		return err
	}
	if err != nil {
		return err
	}

	var notMeasured []string
	for _, k := range sortedKeys(out.metrics) {
		unit, ok := unitOf(k)
		if !ok {
			return fmt.Errorf("metric %q is not in the catalogue", k)
		}
		v := out.metrics[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A quantile of an empty window, e.g. no commit after the
			// warm-up: the run measured nothing to report.
			notMeasured = append(notMeasured, k)
		}
		fmt.Printf("  %-36s %16.6g %s\n", k, v, unit)
	}
	if len(notMeasured) > 0 {
		return fmt.Errorf("no measurement for %v", notMeasured)
	}
	res := result{Correct: true, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range want {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	emit(res)
	return nil
}

// runSuite is the traced run: every workload once, each under its own run
// id, so every per-layer metric and every residual comes from one command.
func runSuite(seed uint64, tr *tracer) (*outcome, error) {
	all := newOutcome()
	for _, w := range workloads {
		tr.setRun(fmt.Sprintf("%s/seed=%d", w.name, seed))
		out, err := w.run(seed, 0, tr)
		if out != nil {
			all.addLayers(out)
		}
		if err != nil {
			return all, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	// Graphs are built by the sweep's units and by the set-ups of
	// shard-1m and dist-100k; the layer's time is their sum.
	all.metrics["graph.build_s"] = tr.seconds("graph.build")
	return all, nil
}

func emit(r result) {
	data, err := json.Marshal(r)
	if err != nil {
		// Every field is a plain number or string; this is unreachable.
		panic(err)
	}
	fmt.Println(string(data))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fingerprint names the host and build a run's numbers belong to: Go
// version, platform, CPU count, GOMAXPROCS and the source revision when
// the build recorded one.
func fingerprint() string {
	rev, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += "+modified"
	}
	return fmt.Sprintf("%s %s/%s cpus=%d gomaxprocs=%d rev=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), rev)
}
