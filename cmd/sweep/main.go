// Command sweep runs a deterministic parallel grid of scenarios:
// (graph family × size × cut × algorithm × parameter) Monte-Carlo cells
// of the paper's Definition-1 averaging-time estimator, on a worker pool,
// with bit-identical results for any -workers value.
//
// Usage:
//
//	sweep -family dumbbell -n 32..256..x2 -algo vanilla,A -cut 1
//	sweep -family dumbbell,ringofcliques -n 16,32 -algo vanilla,A -json grid.json
//	sweep -spec grid.json -workers 8 -json -
//
// Axis flags take comma-separated lists; integer axes also accept ranges
// "lo..hi" (step 1), "lo..hi..+s" (arithmetic) and "lo..hi..xk"
// (geometric); -h lists the graph families with their parameters. The E4
// headline reproduction is simply:
//
//	sweep -family dumbbell -n 32..256..x2 -cut 1 -algo vanilla,A
//
// Telemetry is side-channel only — stdout stays byte-deterministic:
// -progress draws an in-place done/total + cells/s + ETA line on stderr,
// -metrics dumps the run's counters and per-cell wall-time histogram as
// JSON, and -cpuprofile samples carry pprof labels (sweep_family,
// sweep_algo) so profile time attributes per scenario family.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sparsecut/internal/metrics"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sweep"
)

func main() {
	var (
		specFile = flag.String("spec", "", "read the sweep grid from a JSON file (flags below override axes)")
		family   = flag.String("family", "dumbbell", "graph `family` or comma list (axis), of:\n"+strings.TrimSuffix(scenario.Usage(), "\n"))
		ns       = flag.String("n", "64", "node counts: list/range, e.g. 32,64 or 32..256..x2")
		cuts     = flag.String("cut", "", "cut widths: list/range (empty = family default)")
		algos    = flag.String("algo", "vanilla,A", "algorithms: comma list of vanilla|convex|pushsum|A")
		alphas   = flag.String("alpha", "", "convex mixing parameters: comma list")
		epochCs  = flag.String("epochC", "", "Algorithm A epoch constants: comma list")
		weights  = flag.String("weight", "", "Algorithm A swap-weight rules: comma list of exact|paper|custom")
		initKind = flag.String("init", "", "initial vector: worstcase|spike|random|gaussian|linear")
		rates    = flag.String("rates", "", "clock-rate models: comma list of uniform|nodeclock|random (a list becomes a sweep axis)")
		trials   = flag.Int("trials", 5, "Monte-Carlo trials per cell")
		maxTime  = flag.Float64("maxtime", 0, "censoring horizon per trial (0 = 60*n)")
		shards   = flag.Int("shards", 0, "run cells on the sharded PDES engine with this many workers per trial (dumbbell, ringofcliques; vanilla only)")
		window   = flag.Float64("window", 0, "sharded barrier spacing Δ (0 = engine default)")
		seed     = flag.Uint64("seed", 1, "root seed; every cell seed derives from it")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); does not affect results")
		jsonOut  = flag.String("json", "", "write the JSON report to this file ('-' = stdout, replacing the table)")
		quiet    = flag.Bool("q", false, "suppress per-cell progress on stderr")
		progress = flag.Bool("progress", false, "replace per-cell lines with one in-place done/total + cells/s + ETA line on stderr")
		metOut   = flag.String("metrics", "", "write the sweep telemetry snapshot (cells started/completed/errored, wall-time histogram) as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the grid run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a post-run heap profile to this file (go tool pprof)")
	)
	flag.Parse()

	grid := sweep.Grid{}
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			fatal(err)
		}
		grid, err = sweep.ParseGrid(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	set := flagsSet()
	if err := applyFlags(&grid, set, *family, *ns, *cuts, *algos, *alphas, *epochCs, *weights); err != nil {
		fatal(err)
	}
	// Scalar base-spec fields: a -spec file's values yield only to flags
	// the user actually set.
	use := func(name string) bool { return *specFile == "" || set[name] }
	if *initKind != "" && use("init") {
		grid.Base.Init = *initKind
	}
	if *rates != "" && use("rates") {
		switch vals := splitList(*rates); len(vals) {
		case 0:
			// Only separators/whitespace: leave the spec default.
		case 1:
			grid.Base.Rates = vals[0]
		default:
			grid.Rates = vals
		}
	}
	if *trials > 0 && use("trials") {
		grid.Base.Stop.Trials = *trials
	}
	if *maxTime > 0 && use("maxtime") {
		grid.Base.Stop.MaxTime = *maxTime
	}
	if *shards > 0 && use("shards") {
		grid.Base.Stop.Shards = *shards
	}
	if *window > 0 && use("window") {
		grid.Base.Stop.Window = *window
	}

	cfg := sweep.Config{Workers: *workers, Seed: *seed}
	var reg *metrics.Registry
	if *metOut != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	total := 0
	if units, err := sweep.Expand(grid, *seed); err != nil {
		fatal(err)
	} else {
		total = len(units)
	}
	// All progress goes to stderr: stdout (tables, -json -) stays
	// byte-deterministic whatever display mode is chosen.
	done := 0
	switch {
	case *progress:
		start := time.Now()
		cfg.OnCell = func(c sweep.Cell) {
			done++
			elapsed := time.Since(start)
			rate := float64(done) / elapsed.Seconds()
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Round(time.Second)
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells  %.3g cells/s  ETA %v   ", done, total, rate, eta)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	case !*quiet:
		cfg.OnCell = func(c sweep.Cell) {
			done++
			status := c.TavString()
			if c.Error != "" {
				status = "ERROR " + c.Error
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-40s Tav=%s\n", done, total, c.Label, status)
		}
	}
	// Profile exactly the grid run — flag parsing, expansion and report
	// rendering stay outside the window, so profiles compare across PRs.
	var cpuFile *os.File
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	rep, err := sweep.Run(grid, cfg)
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil {
			fatal(cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		f, err := os.Create(*metOut)
		if err != nil {
			fatal(err)
		}
		if err := reg.Snapshot().WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // report retained heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	switch *jsonOut {
	case "":
		if err := rep.Table("sweep results").Render(os.Stdout); err != nil {
			fatal(err)
		}
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if err := rep.Table("sweep results").Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// flagsSet returns the names of flags the user set explicitly, so a -spec
// file's axes are only overridden by flags actually present.
func flagsSet() map[string]bool {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// applyFlags merges the axis flags into the grid. When a -spec file was
// given, only explicitly-set flags override it; otherwise the defaults
// apply.
func applyFlags(grid *sweep.Grid, set map[string]bool, family, ns, cuts, algos, alphas, epochCs, weights string) error {
	fromSpec := len(set) > 0 && set["spec"]
	use := func(name string) bool { return !fromSpec || set[name] }
	if use("family") {
		fams := splitList(family)
		if len(fams) == 1 {
			grid.Base.Graph.Family = fams[0]
			grid.Families = nil
		} else {
			grid.Families = fams
		}
	}
	if use("n") {
		vals, err := parseInts(ns)
		if err != nil {
			return fmt.Errorf("-n: %w", err)
		}
		if len(vals) == 1 {
			grid.Base.Graph.N = vals[0]
			grid.Ns = nil
		} else {
			grid.Ns = vals
		}
	}
	if cuts != "" && use("cut") {
		vals, err := parseInts(cuts)
		if err != nil {
			return fmt.Errorf("-cut: %w", err)
		}
		if len(vals) == 1 {
			grid.Base.Graph.Cut = vals[0]
			grid.Cuts = nil
		} else {
			grid.Cuts = vals
		}
	}
	if use("algo") {
		names := splitList(algos)
		if len(names) == 1 {
			grid.Base.Algo.Name = names[0]
			grid.Algos = nil
		} else {
			grid.Algos = names
		}
	}
	if alphas != "" && use("alpha") {
		vals, err := parseFloats(alphas)
		if err != nil {
			return fmt.Errorf("-alpha: %w", err)
		}
		if len(vals) == 1 {
			grid.Base.Algo.Alpha = vals[0]
			grid.Alphas = nil
		} else {
			grid.Alphas = vals
		}
	}
	if epochCs != "" && use("epochC") {
		vals, err := parseFloats(epochCs)
		if err != nil {
			return fmt.Errorf("-epochC: %w", err)
		}
		if len(vals) == 1 {
			grid.Base.Algo.EpochC = vals[0]
			grid.EpochCs = nil
		} else {
			grid.EpochCs = vals
		}
	}
	if weights != "" && use("weight") {
		names := splitList(weights)
		if len(names) == 1 {
			grid.Base.Algo.Weight = names[0]
			grid.Weights = nil
		} else {
			grid.Weights = names
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseInts parses a comma list whose elements are integers or ranges:
// "lo..hi" (step 1), "lo..hi..+s" (arithmetic step s), "lo..hi..xk"
// (geometric factor k). A list of more than sweep.MaxUnits values is an
// error, found before it is built, and so is a range whose next step
// would overflow an int.
func parseInts(s string) ([]int, error) {
	var out []int
	add := func(v int) error {
		if len(out) == sweep.MaxUnits {
			return fmt.Errorf("more than %d values", sweep.MaxUnits)
		}
		out = append(out, v)
		return nil
	}
	for _, part := range splitList(s) {
		if !strings.Contains(part, "..") {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("bad integer %q", part)
			}
			if err := add(v); err != nil {
				return nil, err
			}
			continue
		}
		fields := strings.Split(part, "..")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("bad range %q (want lo..hi, lo..hi..+s or lo..hi..xk)", part)
		}
		lo, err1 := strconv.Atoi(fields[0])
		hi, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || hi < lo {
			return nil, fmt.Errorf("bad range %q", part)
		}
		step, factor := 1, 0
		if len(fields) == 3 {
			switch spec := fields[2]; {
			case strings.HasPrefix(spec, "x"):
				factor, err1 = strconv.Atoi(spec[1:])
				if err1 != nil || factor < 2 {
					return nil, fmt.Errorf("bad geometric step in %q", part)
				}
				if lo < 1 {
					return nil, fmt.Errorf("geometric range %q needs lo >= 1", part)
				}
			case strings.HasPrefix(spec, "+"):
				step, err1 = strconv.Atoi(spec[1:])
				if err1 != nil || step < 1 {
					return nil, fmt.Errorf("bad arithmetic step in %q", part)
				}
			default:
				return nil, fmt.Errorf("bad step %q (want +s or xk)", spec)
			}
		}
		for v := lo; v <= hi; {
			if err := add(v); err != nil {
				return nil, fmt.Errorf("range %q: %w", part, err)
			}
			if factor > 0 && v <= math.MaxInt/factor {
				v *= factor
			} else if factor == 0 && v <= math.MaxInt-step {
				v += step
			} else {
				return nil, fmt.Errorf("range %q: the step after %d overflows an int", part, v)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
