// Command gossipsim runs one gossip-averaging simulation and reports the
// variance trajectory and final state. Every graph family in the scenario
// registry is available; -h lists them with their parameters.
//
// Usage:
//
//	gossipsim -graph dumbbell -n 128 -cut 1 -algo A     -until 50
//	gossipsim -graph planted  -n 100 -algo vanilla      -until 200 -csv
//	gossipsim -graph ringofcliques -n 64 -blocks 8 -algo A -until 100
//	gossipsim -graph sensor -n 200 -cut 2 -algo vanilla -until 30
//	gossipsim -algo convex -alpha 0.8 ...
//	gossipsim -n 1e6 -algo vanilla -shards 8 -until 0.001
//
// With -csv the variance-ratio trajectory is written to stdout as
// "series,t,value" rows: t=0, then one row at each of 1000 equal steps to
// -until (the time of the first event at or past each step); otherwise a
// short summary is printed. -progress adds a periodic events/sec +
// variance meter on stderr; stdout output (including -csv) is
// byte-identical with or without it.
//
// -shards N routes the run onto the sharded PDES engine over the
// family's implicit clique-block representation (dumbbell and
// ringofcliques only, vanilla + uniform rates; see DESIGN.md §13): the
// graph is never materialised, so million-node runs fit in memory.
// Output is byte-identical for any shard count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
)

func main() {
	gs := scenario.GraphFlags(flag.CommandLine, "dumbbell", 128)
	var (
		algo     = flag.String("algo", "A", "algorithm: A | vanilla | convex | pushsum")
		alpha    = flag.Float64("alpha", 0.5, "mixing parameter for -algo convex")
		until    = flag.Float64("until", 50, "simulated time horizon")
		seed     = flag.Uint64("seed", 1, "random seed")
		csv      = flag.Bool("csv", false, "emit the variance-ratio trajectory (t=0 and 1000 equal steps) as CSV")
		progress = flag.Bool("progress", false, "print a periodic events/sec + variance meter to stderr")
		initKind = flag.String("init", "", "initial vector: worstcase|spike|random|gaussian|linear")
		rateKind = flag.String("rates", "", "clock-rate model: uniform|nodeclock|random")
		shards   = flag.Int("shards", 0, "run on the sharded PDES engine with this many workers (dumbbell, ringofcliques; vanilla only)")
		window   = flag.Float64("window", 0, "sharded barrier spacing Δ (0 = engine default)")
	)
	flag.Parse()

	spec := scenario.Spec{
		Graph: *gs,
		Algo:  scenario.AlgoSpec{Name: *algo, Alpha: *alpha},
		Init:  *initKind,
		Rates: *rateKind,
		Stop:  scenario.StopSpec{Shards: *shards, Window: *window},
		Seed:  *seed,
	}
	if *shards > 0 {
		if *csv {
			fatal(fmt.Errorf("-csv is not available with -shards (variance is only observed at window barriers)"))
		}
		if err := runSharded(spec, *until, *progress); err != nil {
			fatal(err)
		}
		return
	}
	res, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}
	alg, err := res.NewAlgorithm(res.AlgorithmRNG())
	if err != nil {
		fatal(err)
	}

	var0 := alg.Variance()
	opts := []sim.Option{sim.WithSeed(*seed)}
	if res.Rates != nil {
		opts = append(opts, sim.WithRates(res.Rates))
	}
	eng, err := sim.NewEngine(res.Graph, alg, opts...)
	if err != nil {
		fatal(err)
	}
	// The run reaches -until in steps equal RunUntil calls; the CSV
	// records t=0 and one row after each. Chained calls process exactly
	// the events of one call to -until, so the summary does not depend on
	// the step count.
	const steps = 1000
	ratio := func() float64 { return alg.Variance() / var0 }
	var out *bufio.Writer
	if *csv {
		out = bufio.NewWriter(os.Stdout)
		out.WriteString("series,t,value\n")
	}
	row := func(t float64) {
		if out == nil {
			return
		}
		out.WriteString(alg.Name())
		out.WriteByte(',')
		out.WriteString(strconv.FormatFloat(t, 'g', 10, 64))
		out.WriteByte(',')
		out.WriteString(strconv.FormatFloat(ratio(), 'g', 10, 64))
		out.WriteByte('\n')
	}
	row(0)
	var meter *progressMeter
	if *progress {
		meter = newProgressMeter()
	}
	for i := 1; i <= steps; i++ {
		eng.RunUntil(float64(i) / steps * *until)
		row(eng.Now())
		if meter != nil {
			meter.barrier(eng.Now(), eng.Events(), ratio())
		}
	}
	t, events := eng.Now(), eng.Events()
	if meter != nil {
		meter.finish(t, events, ratio())
	}

	if out != nil {
		if err := out.Flush(); err != nil {
			fatal(err)
		}
		return
	}
	res.Describe(os.Stdout)
	fmt.Printf("algorithm:  %s\n", alg.Name())
	fmt.Printf("simulated:  t=%.4g (%d events)\n", t, events)
	fmt.Printf("mean:       %.6g\n", alg.Mean())
	fmt.Printf("var ratio:  %.6g\n", ratio())
}

// runSharded executes one single-replica run on the sharded PDES engine:
// implicit graph, flat state, windowed tile advancement. The summary on
// stdout is deterministic — byte-identical for any -shards value.
func runSharded(spec scenario.Spec, until float64, progress bool) error {
	res, err := spec.Resolve()
	if err != nil {
		return err
	}
	til := res.Implicit.Tiling()
	st, err := gossip.NewFlatState(res.X0, til.Bounds())
	if err != nil {
		return err
	}
	var0 := st.Variance()
	cfg := sim.ShardConfig{Workers: spec.Stop.Shards, Window: spec.Stop.Window}
	var meter *progressMeter
	if progress {
		meter = newProgressMeter()
		cfg.Observer = func(t float64, events int64) {
			meter.barrier(t, events, st.Variance()/var0)
		}
	}
	eng := sim.NewShardEngine(til, st, res.AlgorithmRNG(), cfg)
	start := time.Now()
	eng.RunUntil(until)
	if meter != nil {
		meter.finish(eng.Now(), eng.Events(), st.Variance()/var0)
	}

	fmt.Printf("graph:      %s (implicit, n=%d, %d edges)\n",
		res.Implicit.Name(), res.Implicit.NumNodes(), res.Implicit.NumEdges())
	fmt.Printf("tiling:     %d tiles, %d boundary edges\n", len(til.Tiles), len(til.Boundary))
	// The worker count stays off stdout: the summary is byte-identical
	// for any -shards value, which CI checks with a plain cmp.
	fmt.Printf("algorithm:  vanilla (sharded)\n")
	fmt.Printf("simulated:  t=%.4g (%d events)\n", eng.Now(), eng.Events())
	fmt.Printf("mean:       %.6g\n", st.Mean())
	fmt.Printf("var ratio:  %.6g\n", st.Variance()/var0)
	if progress {
		wall := time.Since(start).Seconds()
		if eng.Events() > 0 && wall > 0 {
			fmt.Fprintf(os.Stderr, "progress: %.1f ns/event\n", wall*1e9/float64(eng.Events()))
		}
	}
	return nil
}

// progressMeter prints a periodic one-line telemetry reading to stderr.
// The wall-clock gate limits prints to ~5 per second. It writes only to
// stderr, so -csv stdout stays byte-identical.
type progressMeter struct {
	start      time.Time
	lastPrint  time.Time
	lastEvents int64
}

func newProgressMeter() *progressMeter {
	now := time.Now()
	return &progressMeter{start: now, lastPrint: now}
}

// barrier prints a reading at most every 200 ms of wall time; callers
// invoke it at their own step boundaries (window barriers on the sharded
// engine, RunUntil steps otherwise).
func (p *progressMeter) barrier(t float64, events int64, varRatio float64) {
	now := time.Now()
	gap := now.Sub(p.lastPrint)
	if gap < 200*time.Millisecond {
		return
	}
	rate := float64(events-p.lastEvents) / gap.Seconds()
	fmt.Fprintf(os.Stderr, "progress: t=%-10.4g %12d events  %10.4g ev/s  var %.4g\n",
		t, events, rate, varRatio)
	p.lastPrint = now
	p.lastEvents = events
}

func (p *progressMeter) finish(t float64, events int64, varRatio float64) {
	wall := time.Since(p.start)
	rate := float64(events) / wall.Seconds()
	fmt.Fprintf(os.Stderr, "progress: t=%-10.4g %12d events  %10.4g ev/s  var %.4g  (done in %v)\n",
		t, events, rate, varRatio, wall.Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gossipsim:", err)
	os.Exit(1)
}
