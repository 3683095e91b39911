// Command mcheck model-checks the exchange protocol of internal/dist: it
// drives the same pure state machine the live runtime runs through
// systematically explored schedules of deliveries, drops, duplications,
// reorderings, timeouts, retransmissions, crashes and recoveries, and
// asserts sum conservation, no-stale-commit, lock-state sanity and
// quiescence after every step (see internal/check).
//
// Usage:
//
//	mcheck -graph complete -n 3 -depth 12 -drop -dup -crash     # exhaustive
//	mcheck -graph path -n 4 -depth 10 -drop -crash              # exhaustive, 4 nodes
//	mcheck -graph ring -n 5 -mode walk -walks 20000 -depth 24   # seeded random walks
//	mcheck -graph dumbbell -n 6 -rule A -depth 10 -drop         # Algorithm A's rule
//	mcheck -mutation lax-watermark-dedup -trace cex.json        # catch a seeded bug
//	mcheck -replay cex.json                                     # replay a counterexample
//	mcheck -replay cex.json -flight cex.flight.json             # + JSON flight dump & span timeline
//
// The graph flags are scenario.GraphFlags, as in gossipsim and distrun;
// the default, -graph complete -n 3, is the triangle.
//
// Exit status: 0 when no invariant is violated, 1 on a violation (the
// counterexample is printed, and written to -trace if set), 2 on usage or
// replay-mismatch errors. -expect-violation inverts 0/1 for CI jobs that
// assert a seeded mutation is caught.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"sparsecut/internal/check"
	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
	"sparsecut/internal/scenario"
)

func main() {
	gs := scenario.GraphFlags(flag.CommandLine, "complete", 3)
	var (
		ruleKind  = flag.String("rule", "vanilla", "exchange rule: vanilla | A (A needs a family with a planted partition)")
		epochK    = flag.Int64("epoch", 2, "swap period K in ticks of ec (rule A)")
		mode      = flag.String("mode", "exhaustive", "exploration mode: exhaustive | walk")
		depth     = flag.Int("depth", 12, "maximum schedule length")
		states    = flag.Int64("states", 0, "state budget for exhaustive mode (0 = default)")
		inits     = flag.Int("inits", 2, "initiation budget per schedule")
		drop      = flag.Bool("drop", false, "enable message-drop actions")
		dup       = flag.Bool("dup", false, "enable reply-duplication actions")
		crash     = flag.Bool("crash", false, "enable crash/recover actions")
		walks     = flag.Int("walks", 10000, "number of random walks (walk mode)")
		seed      = flag.Uint64("seed", 1, "random seed (walk mode; graph sampling for random families)")
		mutation  = flag.String("mutation", "none", "seed an intentional protocol bug (checker self-test)")
		traceOut  = flag.String("trace", "", "write the counterexample trace JSON to this file")
		flightOut = flag.String("flight", "", "replay the counterexample through the flight recorder, write the dump here (render with tracez), and print its span timeline")
		replayIn  = flag.String("replay", "", "replay a counterexample trace JSON instead of exploring")
		expectBug = flag.Bool("expect-violation", false, "exit 0 iff a violation IS found (CI mutation gates)")
	)
	flag.Parse()

	if *replayIn != "" {
		os.Exit(replay(*replayIn, *flightOut))
	}

	spec, err := buildSpec(*gs, *ruleKind, *epochK, *seed)
	if err != nil {
		fatal(err)
	}
	mu, ok := dist.ParseMutation(*mutation)
	if !ok {
		fatal(fmt.Errorf("unknown mutation %q", *mutation))
	}
	opt := check.Options{
		MaxDepth:       *depth,
		MaxStates:      *states,
		MaxInitiations: *inits,
		Drops:          *drop,
		Dups:           *dup,
		Crashes:        *crash,
		Mutation:       mu,
	}

	start := time.Now()
	var res *check.Result
	switch *mode {
	case "exhaustive":
		res, err = check.Exhaustive(spec, opt)
	case "walk":
		res, err = check.RandomWalk(spec, opt, *seed, *walks)
	default:
		err = fmt.Errorf("unknown mode %q (want exhaustive or walk)", *mode)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if *mode == "walk" {
		fmt.Printf("mcheck: %d walks, %d steps taken, deepest %d, in %v\n",
			res.Walks, res.Transitions, res.DeepestDepth, elapsed.Round(time.Millisecond))
	} else {
		fmt.Printf("mcheck: %d states explored, %d transitions (%d deduped), deepest %d, in %v\n",
			res.StatesExplored, res.Transitions, res.Deduped, res.DeepestDepth, elapsed.Round(time.Millisecond))
		if res.Truncated {
			fmt.Println("mcheck: WARNING: state budget exhausted; exploration is incomplete")
		}
	}

	if res.Counterexample == nil {
		fmt.Println("mcheck: no invariant violations")
		if *expectBug {
			fmt.Println("mcheck: FAIL: a violation was expected (-expect-violation)")
			os.Exit(1)
		}
		return
	}

	tr := res.Counterexample
	fmt.Printf("mcheck: VIOLATION at step %d: %s: %s\n", tr.Violation.Step, tr.Violation.Invariant, tr.Violation.Detail)
	for i, a := range tr.Actions {
		line := a.Op
		if a.Info != "" {
			line += "  (" + a.Info + ")"
		}
		fmt.Printf("  %2d. %s\n", i+1, line)
	}
	if *traceOut != "" {
		if err := tr.WriteFile(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Printf("mcheck: counterexample written to %s\n", *traceOut)
	}
	// Confirm the counterexample replays deterministically before trusting it.
	v, err := check.Replay(tr)
	if err != nil || !tr.Violation.Same(v) {
		fmt.Printf("mcheck: FAIL: counterexample does not replay (got %+v, err %v)\n", v, err)
		os.Exit(2)
	}
	if *flightOut != "" {
		if err := flightDump(tr, *flightOut); err != nil {
			fatal(err)
		}
	}
	if *expectBug {
		fmt.Println("mcheck: violation found and replayed, as expected")
		return
	}
	os.Exit(1)
}

// replay re-executes a trace file and compares against its recorded
// violation. Exit 0 on faithful reproduction (including a recorded clean
// run), 1 when the violation reproduces differently, 2 on broken traces.
// With flightOut set the replay additionally captures a flight dump.
func replay(path, flightOut string) int {
	tr, err := check.ReadTraceFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcheck:", err)
		return 2
	}
	v, err := check.Replay(tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcheck: replay:", err)
		return 2
	}
	if flightOut != "" {
		if err := flightDump(tr, flightOut); err != nil {
			fmt.Fprintln(os.Stderr, "mcheck: flight:", err)
			return 2
		}
	}
	switch {
	case tr.Violation.Same(v):
		if v == nil {
			fmt.Println("mcheck: trace replays cleanly (no violation recorded, none produced)")
		} else {
			fmt.Printf("mcheck: violation reproduced at step %d: %s: %s\n", v.Step, v.Invariant, v.Detail)
		}
		return 0
	default:
		rec, _ := json.Marshal(tr.Violation)
		got, _ := json.Marshal(v)
		fmt.Printf("mcheck: REPLAY MISMATCH\n  recorded: %s\n  replayed: %s\n", rec, got)
		return 1
	}
}

// flightDump replays tr through the flight recorder (virtual ticks,
// byte-deterministic — see check.ReplayFlight), writes the dump to path,
// and prints the schedule as a per-exchange span timeline.
func flightDump(tr *check.Trace, path string) error {
	rec := flight.New(tr.Graph.Nodes, 0)
	if _, err := check.ReplayFlight(tr, rec); err != nil {
		return err
	}
	d := rec.Snapshot()
	if err := d.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("mcheck: flight dump (%d events) written to %s; render with: go run ./cmd/tracez -view timeline %s\n",
		len(d.Events), path, path)
	fmt.Println("mcheck: schedule as span timeline (times are virtual ticks):")
	flight.RenderTimeline(os.Stdout, flight.Stitch(d), flight.NewFilter())
	return nil
}

// buildSpec assembles the checked system from the registry's graph. Initial
// values follow a fixed distinct-value pattern so provenance violations are
// visible (exchanges between equal values have delta 0).
func buildSpec(gs scenario.GraphSpec, ruleKind string, epochK int64, seed uint64) (check.Spec, error) {
	res, err := scenario.Spec{
		Graph: gs,
		Algo:  scenario.AlgoSpec{Name: ruleKind, EpochTicks: epochK},
		Init:  "spike", // the pattern below replaces x0: skip worst-case cut detection
		Seed:  seed,
	}.Resolve()
	if err != nil {
		return check.Spec{}, err
	}
	g := res.Graph
	if g.NumNodes() < 2 {
		return check.Spec{}, fmt.Errorf("graph %s has fewer than 2 nodes", g)
	}
	x0 := make([]float64, g.NumNodes())
	for i := range x0 {
		x0[i] = float64((i*3)%7) - 2 // distinct-ish, sum-varied, exact in binary
	}
	ec, k, w, err := res.SwapParams()
	if err != nil {
		return check.Spec{}, err
	}
	rule := check.Vanilla()
	if res.Spec.Algo.Name == "A" {
		sides := make([]int, g.NumNodes())
		for i, side := range res.Partition.Sides() {
			if side == graph.Side2 {
				sides[i] = 1
			}
		}
		rule = check.SparseCut(sides, int(ec), k, w)
	}
	return check.Spec{Graph: g, X0: x0, Rule: rule}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcheck:", err)
	os.Exit(2)
}
