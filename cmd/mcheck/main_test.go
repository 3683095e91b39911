package main

import (
	"testing"

	"sparsecut/internal/check"
	"sparsecut/internal/scenario"
)

// -graph dumbbell -n N checks an N-node dumbbell: two sides of N/2 nodes
// joined by one cut edge.
func TestBuildSpecDumbbellNodeCount(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		spec, err := buildSpec(scenario.GraphSpec{Family: "dumbbell", N: n}, "A", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Graph.NumNodes(); got != n {
			t.Errorf("-n %d: %d nodes", n, got)
		}
		if got := len(spec.X0); got != n {
			t.Errorf("-n %d: %d initial values", n, got)
		}
	}
}

// CI's three budgeted explorations, built through buildSpec as the CLI
// builds them (default -inits 2, -epoch 2 and -seed 1), explore exactly
// these counts: states, transitions, deduped and depth. They pin the
// path, cycle (through its ring alias) and dumbbell families' graphs as
// well as the checker.
func TestCIExplorationCounts(t *testing.T) {
	for _, c := range []struct {
		name              string
		gs                scenario.GraphSpec
		rule              string
		opt               check.Options
		states, trans, dd int64
		depth             int
	}{
		{"path -n 4 -depth 10 -drop -crash", scenario.GraphSpec{Family: "path", N: 4}, "vanilla",
			check.Options{MaxDepth: 10, Drops: true, Crashes: true}, 62_636, 257_120, 194_485, 10},
		{"ring -n 5 -depth 8 -drop", scenario.GraphSpec{Family: "ring", N: 5}, "vanilla",
			check.Options{MaxDepth: 8, Drops: true}, 19_492, 58_999, 39_508, 8},
		{"dumbbell -n 6 -rule A -depth 9 -drop", scenario.GraphSpec{Family: "dumbbell", N: 6}, "A",
			check.Options{MaxDepth: 9, Drops: true}, 50_008, 165_452, 115_445, 9},
	} {
		spec, err := buildSpec(c.gs, c.rule, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		c.opt.MaxInitiations = 2
		res, err := check.Exhaustive(spec, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counterexample != nil {
			t.Errorf("%s: violation %s", c.name, res.Counterexample.Violation.Invariant)
		}
		if res.StatesExplored != c.states || res.Transitions != c.trans || res.Deduped != c.dd || res.DeepestDepth != c.depth {
			t.Errorf("%s: %d states, %d transitions (%d deduped), deepest %d; want %d, %d (%d), %d",
				c.name, res.StatesExplored, res.Transitions, res.Deduped, res.DeepestDepth, c.states, c.trans, c.dd, c.depth)
		}
	}
}
