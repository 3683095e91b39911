package check

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
)

func triangleSpec() Spec {
	return Spec{Graph: graph.Complete(3), X0: []float64{1, 5, 0}, Rule: Vanilla()}
}

func faultOptions(depth int) Options {
	return Options{MaxDepth: depth, Drops: true, Dups: true, Crashes: true}
}

// TestExhaustiveTriangleClean is the tentpole guarantee: every state of a
// 3-node clique reachable within the default budgets — arbitrary delivery
// order, drops, duplicated replies, timeouts firing at any point, proposal
// retransmissions, and a crash/recovery — satisfies every invariant.
func TestExhaustiveTriangleClean(t *testing.T) {
	res, err := Exhaustive(triangleSpec(), faultOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct protocol violated an invariant:\n%+v", res.Counterexample.Violation)
	}
	if res.Truncated {
		t.Fatalf("state budget exhausted after %d states; exploration incomplete", res.StatesExplored)
	}
	// The space is explored deterministically; the exact counts pin the
	// enumeration so accidental action-alphabet or hash changes are visible.
	pinCounts(t, res, 231_810, 1_246_177, 1_014_368, 12)
}

// pinCounts asserts an exploration's exact shape.
func pinCounts(t *testing.T, res *Result, states, transitions, deduped int64, depth int) {
	t.Helper()
	if res.StatesExplored != states || res.Transitions != transitions || res.Deduped != deduped || res.DeepestDepth != depth {
		t.Fatalf("explored %d states, %d transitions (%d deduped), deepest %d; want %d, %d (%d), %d",
			res.StatesExplored, res.Transitions, res.Deduped, res.DeepestDepth, states, transitions, deduped, depth)
	}
}

// TestExhaustiveSparseCutClean runs the checker over Algorithm A's exchange
// rule on a 4-node path cut in the middle, including the designated edge's
// tick counter and swap in the explored state.
func TestExhaustiveSparseCutClean(t *testing.T) {
	g := graph.Path(4)
	cut, ok := g.FindEdge(1, 2)
	if !ok {
		t.Fatal("path(4) is missing edge 1-2")
	}
	spec := Spec{
		Graph: g,
		X0:    []float64{2, 4, -1, 3},
		Rule:  SparseCut([]int{0, 0, 1, 1}, int(cut), 2, 0.5),
	}
	opt := Options{MaxDepth: 10, Drops: true, Crashes: true}
	res, err := Exhaustive(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("sparse-cut rule violated an invariant:\n%+v", res.Counterexample.Violation)
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
	// The rule's tick and swap counters enter the state hash, so these
	// counts also pin how A's rule state is deduplicated.
	pinCounts(t, res, 63_487, 259_133, 195_647, 10)
}

// TestMutationsCaught proves the checker catches every seeded protocol bug
// — including the two real bugs it found in this machine's own seed
// (MutNackRoleConfusion, MutLaxWatermarkDedup) — and that each
// counterexample replays deterministically to the identical violation,
// survives a JSON round trip, and re-encodes as a schedule byte-string
// that reproduces it.
func TestMutationsCaught(t *testing.T) {
	mutations := []dist.Mutation{
		dist.MutNackRollbackApplies,
		dist.MutStaleProposalApply,
		dist.MutCommitIgnoresSeq,
		dist.MutNackRoleConfusion,
		dist.MutLaxWatermarkDedup,
	}
	for _, mu := range mutations {
		mu := mu
		t.Run(mu.String(), func(t *testing.T) {
			spec := triangleSpec()
			opt := faultOptions(12)
			opt.Mutation = mu
			res, err := Exhaustive(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Counterexample
			if tr == nil {
				t.Fatalf("mutation %s not caught in %d states", mu, res.StatesExplored)
			}
			if tr.Mutation != mu.String() {
				t.Fatalf("trace names mutation %q, want %q", tr.Mutation, mu)
			}
			if tr.Violation == nil || tr.Violation.Step != len(tr.Actions) {
				t.Fatalf("violation %+v does not sit at the trace's last action (%d)", tr.Violation, len(tr.Actions))
			}

			// The replayer must reproduce the identical violation...
			v, err := Replay(tr)
			if err != nil {
				t.Fatalf("replay failed: %v", err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("replayed violation %+v differs from recorded %+v", v, tr.Violation)
			}

			// ...including after a trip through trace JSON on disk...
			path := filepath.Join(t.TempDir(), "cex.json")
			if err := tr.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v, err = Replay(loaded)
			if err != nil {
				t.Fatalf("replay of loaded trace failed: %v", err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("loaded-trace violation %+v differs from recorded %+v", v, tr.Violation)
			}

			// ...and re-encoded as a schedule byte-string (the fuzz format).
			sched, err := encodeSchedule(spec, opt, tr.Actions)
			if err != nil {
				t.Fatalf("encoding schedule: %v", err)
			}
			_, v, err = runSchedule(spec, opt, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Violation.Same(v) {
				t.Fatalf("byte-schedule violation %+v differs from recorded %+v", v, tr.Violation)
			}
			t.Logf("caught at step %d (%s): %s", tr.Violation.Step, tr.Violation.Invariant, tr.Violation.Detail)
		})
	}
}

// TestRandomWalk checks walk mode: clean on the correct protocol, and it
// still finds a seeded bug (with enough walks) without exhaustive search.
func TestRandomWalk(t *testing.T) {
	spec := triangleSpec()
	res, err := RandomWalk(spec, faultOptions(20), 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct protocol violated an invariant on a random walk:\n%+v", res.Counterexample.Violation)
	}
	if res.Walks != 200 {
		t.Fatalf("completed %d walks, want 200", res.Walks)
	}

	opt := faultOptions(20)
	opt.Mutation = dist.MutNackRollbackApplies
	res, err = RandomWalk(spec, opt, 7, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("mutation %s not found in 5000 random walks", opt.Mutation)
	}
	if v, err := Replay(res.Counterexample); err != nil || !res.Counterexample.Violation.Same(v) {
		t.Fatalf("walk counterexample does not replay: v=%+v err=%v", v, err)
	}
}

// TestSpecValidation exercises the constructor errors.
func TestSpecValidation(t *testing.T) {
	tri := graph.Complete(3)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"nil graph", Spec{X0: []float64{1}, Rule: Vanilla()}, "no graph"},
		{"wrong x0 len", Spec{Graph: tri, X0: []float64{1, 2}, Rule: Vanilla()}, "initial values"},
		{"nan x0", Spec{Graph: tri, X0: []float64{1, math.NaN(), 2}, Rule: Vanilla()}, "NaN"},
		{"bad rule kind", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: RuleSpec{Kind: "nope"}}, "unknown rule"},
		{"bad sides len", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1}, 0, 1, 0.5)}, "sides"},
		{"non-cut edge", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 2, 1, 0.5)}, "does not cross"},
		{"side not 0 or 1", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 2, 1}, 0, 1, 0.5)}, "not 0 or 1"},
		{"one-sided partition", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{1, 1, 1}, 0, 1, 0.5)}, "two non-empty sides"},
		{"edge past range", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 3, 1, 0.5)}, "out of range"},
		// 1<<32 wraps to edge 0, which crosses the cut, if converted unchecked.
		{"edge wraps EdgeID", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 1<<32, 1, 0.5)}, "out of range"},
		{"zero epoch", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 0, 0, 0.5)}, "epoch ticks"},
		{"bad weight", Spec{Graph: tri, X0: []float64{1, 2, 3}, Rule: SparseCut([]int{0, 1, 1}, 0, 1, math.Inf(1))}, "swap weight"},
		{"too many nodes to hash", Spec{Graph: graph.Path(257), X0: make([]float64, 257), Rule: Vanilla()}, "at most 256 nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Exhaustive(tc.spec, Options{MaxDepth: 2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestEncodeScheduleRejectsForeignAction: an action that is not enabled at
// its step must not silently encode.
func TestEncodeScheduleRejectsForeignAction(t *testing.T) {
	_, err := encodeSchedule(triangleSpec(), faultOptions(4), []Action{{Op: OpTimeout, Node: 0}})
	if err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("error %v, want 'not enabled'", err)
	}
}
