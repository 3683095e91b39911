package dist

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// dumbbellCase builds the canonical worst case: two 6-cliques, one cut
// edge, all initial variance across the cut.
func dumbbellCase(t *testing.T) (*graph.Graph, *graph.Partition, []float64) {
	t.Helper()
	g, part, err := graph.Dumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, part, gossip.CutIndicator(part)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// newTestRuntime builds a ShardRuntime with the given shard count or fails
// the test.
func newTestRuntime(t *testing.T, g *graph.Graph, x0 []float64, rule Rule, shards int, cfg ClusterConfig) *ShardRuntime {
	t.Helper()
	rt, err := NewShardRuntime(g, x0, rule, ShardRuntimeConfig{ClusterConfig: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSumConservedAcrossAbortsAndDrops runs one node per shard, so every
// protocol message crosses a shard mailbox under the injected faults.
func TestSumConservedAcrossAbortsAndDrops(t *testing.T) {
	g, part, x0 := dumbbellCase(t)
	rule, err := NewSparseCutRule(part, part.CutEdges()[0], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately hostile network: every message is dropped with
	// probability 0.25, and the survivors are delayed by up to 2ms. The
	// lock timeout must exceed the worst-case round trip (3 messages) or
	// the initiator refuses every proposal as stale; 10ms leaves room for
	// one drop plus a retransmission within the window.
	cl := newTestRuntime(t, g, x0, rule, perNode, ClusterConfig{
		TimeScale: 4 * time.Millisecond, Seed: 1,
		Drop: 0.25, Delay: 2 * time.Millisecond,
		LockTimeout: 10 * time.Millisecond,
	})
	if err := cl.Run(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if cl.Exchanges() == 0 {
		t.Fatal("no exchanges committed")
	}
	if cl.Aborted() == 0 {
		t.Error("25% drop with 2ms delays produced no aborts")
	}
	if drift := math.Abs(sum(cl.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across %d exchanges / %d aborts",
			drift, cl.Exchanges(), cl.Aborted())
	}
	if drift := math.Abs(cl.Mean()); drift > 1e-9 {
		t.Errorf("mean drifted to %g, want 0", cl.Mean())
	}
	// No variance assertion here: the sparse-cut swap is non-convex and
	// legitimately re-inflates varX until the sides remix, which this
	// hostile network intentionally starves. The invariant under fire is
	// the sum, checked above; convergence is TestConvergenceMatchesSimulator's
	// job on a fault-free network.
	t.Logf("exchanges=%d aborted=%d dropped=%d var=%.4g",
		cl.Exchanges(), cl.Aborted(), cl.Dropped(), cl.Variance())
}

func TestConvergenceMatchesSimulator(t *testing.T) {
	g, part, x0 := dumbbellCase(t)
	_ = part
	const horizon = 5.0

	// Simulator reference: geometric mean over 20 seeds of vanilla
	// gossip's variance ratio at the horizon.
	simLog := 0.0
	const simTrials = 20
	for s := uint64(1); s <= simTrials; s++ {
		alg, err := gossip.NewVanilla(g, x0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := sim.NewEngine(g, alg, sim.WithSeed(s))
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(horizon)
		simLog += math.Log(alg.Variance())
	}
	simRatio := math.Exp(simLog / simTrials)

	// Runtime: geometric mean over 6 seeds at the same horizon. The large
	// TimeScale keeps the lock windows (cross-shard latency) small
	// relative to the mean clock gap, so the effective exchange rate stays
	// close to the simulator's nominal rate-1 edge clocks.
	distLog := 0.0
	const distTrials = 6
	for s := uint64(1); s <= distTrials; s++ {
		cl := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{TimeScale: 24 * time.Millisecond, Seed: s})
		if err := cl.Run(context.Background(), horizon); err != nil {
			t.Fatal(err)
		}
		distLog += math.Log(cl.Variance())
	}
	distRatio := math.Exp(distLog / distTrials)

	if distRatio > 2*simRatio || simRatio > 2*distRatio {
		t.Errorf("variance ratio at t=%g: runtime %.4g vs simulator %.4g — more than 2x apart",
			horizon, distRatio, simRatio)
	}
	t.Logf("t=%g: runtime ratio %.4g, simulator ratio %.4g (factor %.2f)",
		horizon, distRatio, simRatio, distRatio/simRatio)
}

// TestRepeatedRunsContinue resumes a runtime across Runs, on the direct
// path and under Delay. With Delay, a run can end with messages still held
// by their senders; the next run must start without them, and a held
// message planted between runs is never delivered.
func TestRepeatedRunsContinue(t *testing.T) {
	for _, delay := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("delay=%v", delay), func(t *testing.T) {
			g, _, _ := dumbbellCase(t)
			// Random initial values: every committed internal exchange
			// strictly reduces the variance, so progress does not hinge on
			// the (slow, Poisson-rare) single cut edge.
			x0 := gossip.UniformRandom(rng.New(9), g.NumNodes())
			cl := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{
				TimeScale: 4 * time.Millisecond, Seed: 5,
				Delay: delay, LockTimeout: 4 * delay, // 0 keeps the default

			})
			var0 := cl.Variance()
			if err := cl.Run(context.Background(), 8); err != nil {
				t.Fatal(err)
			}
			ex1 := cl.Exchanges()
			if ex1 == 0 {
				t.Fatal("first run committed no exchanges")
			}
			const planted = math.MaxUint64
			cl.shards[0].held.push(heldMsg{m: Message{Kind: MsgLock, From: 0, To: 1, Epoch: cl.epoch, Seq: planted}})
			var leaked atomic.Int64
			cl.tap = func(ev nodeEvent) {
				if ev.in.Kind == StepDeliver && ev.in.Msg.Seq == planted {
					leaked.Add(1)
				}
			}
			if err := cl.Run(context.Background(), 8); err != nil {
				t.Fatal(err)
			}
			if n := leaked.Load(); n != 0 {
				t.Errorf("a message held across the run boundary was delivered %d times", n)
			}
			if cl.Exchanges() <= ex1 {
				t.Errorf("second run committed no exchanges (%d then %d)", ex1, cl.Exchanges())
			}
			if cl.Variance() >= var0 {
				t.Errorf("variance %g did not decrease from %g after 16 time units", cl.Variance(), var0)
			}
			if drift := math.Abs(cl.Mean() - sum(x0)/float64(len(x0))); drift > 1e-9 {
				t.Errorf("mean drifted by %g across two runs", drift)
			}
			assertLedger(t, cl)
		})
	}
}

func TestIsolatedNodeDoesNotPanic(t *testing.T) {
	// A graph with an isolated node: its clock must simply never fire
	// (rate 0), not panic the process.
	g, err := graph.NewBuilder(3).AddEdge(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	x0 := []float64{1, -1, 7}
	cl := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 1})
	if err := cl.Run(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if got := cl.Values()[2]; got != 7 {
		t.Errorf("isolated node's value changed to %g", got)
	}
	if drift := math.Abs(sum(cl.Values()) - 7); drift > 1e-12 {
		t.Errorf("sum drifted by %g", drift)
	}
}

func TestSparseCutRuleSemantics(t *testing.T) {
	g, part, _ := dumbbellCase(t)
	ec := part.CutEdges()[0]
	const w = 3.0
	rule, err := NewSparseCutRule(part, ec, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	// Internal edges average regardless of the epoch counter.
	var internal graph.EdgeID = -1
	for id := 0; id < g.NumEdges(); id++ {
		if !part.IsCutEdge(graph.EdgeID(id)) {
			internal = graph.EdgeID(id)
			break
		}
	}
	u := g.Edge(internal).U
	if d := rule.Delta(internal, u, 1, 5); d != 2 {
		t.Errorf("internal edge delta %g, want 2 (averaging)", d)
	}
	// The designated edge fires on every 3rd committed tick.
	want := []float64{0, 0, w * (5.0 - 1.0), 0, 0, w * (5.0 - 1.0)}
	for i, exp := range want {
		if d := rule.Delta(ec, g.Edge(ec).U, 1, 5); d != exp {
			t.Errorf("ec tick %d: delta %g, want %g", i+1, d, exp)
		}
	}
	if rule.Swaps() != 2 {
		t.Errorf("Swaps() = %d, want 2", rule.Swaps())
	}
	if rule.EpochTicks() != 3 || rule.Weight() != w {
		t.Errorf("accessors: K=%d w=%g", rule.EpochTicks(), rule.Weight())
	}
}

// TestSparseCutRuleClone checks that a clone starts from the rule's
// counters and then advances on its own, as the model checker's forked
// worlds need.
func TestSparseCutRuleClone(t *testing.T) {
	g, part, _ := dumbbellCase(t)
	ec := part.CutEdges()[0]
	u := g.Edge(ec).U
	rule, err := NewSparseCutRule(part, ec, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rule.Delta(ec, u, 1, 5)
	}
	cp := rule.Clone()
	if cp.Ticks() != 4 || cp.Swaps() != 1 {
		t.Fatalf("clone counters %d/%d, want 4/1", cp.Ticks(), cp.Swaps())
	}
	for i, want := range []float64{0, 8} {
		if d := cp.Delta(ec, u, 1, 5); d != want {
			t.Errorf("clone tick %d: delta %g, want %g", 5+i, d, want)
		}
	}
	if rule.Ticks() != 4 || rule.Swaps() != 1 || cp.Ticks() != 6 || cp.Swaps() != 2 {
		t.Errorf("counters after the clone advanced: rule %d/%d, clone %d/%d",
			rule.Ticks(), rule.Swaps(), cp.Ticks(), cp.Swaps())
	}
}

func TestSparseCutRuleMultiCutEdges(t *testing.T) {
	g, part, err := graph.Dumbbell(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec := part.CutEdges()[0]
	other := part.CutEdges()[1]
	rule, err := NewSparseCutRule(part, ec, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := rule.Delta(other, g.Edge(other).U, 1, 5); d != 0 {
		t.Errorf("non-designated cut edge delta %g, want 0", d)
	}
	if d := rule.Delta(ec, g.Edge(ec).U, 1, 5); d != 8 {
		t.Errorf("designated edge with K=1 delta %g, want 8", d)
	}
}

func TestSparseCutRuleValidation(t *testing.T) {
	g, part, _ := dumbbellCase(t)
	var internal graph.EdgeID
	for id := 0; id < g.NumEdges(); id++ {
		if !part.IsCutEdge(graph.EdgeID(id)) {
			internal = graph.EdgeID(id)
			break
		}
	}
	ec := part.CutEdges()[0]
	cases := []struct {
		name   string
		part   *graph.Partition
		ec     graph.EdgeID
		k      int64
		weight float64
	}{
		{"nil partition", nil, ec, 2, 1},
		{"non-cut designated edge", part, internal, 2, 1},
		{"out-of-range edge", part, graph.EdgeID(g.NumEdges()), 2, 1},
		{"zero epoch", part, ec, 0, 1},
		{"zero weight", part, ec, 2, 0},
		{"negative weight", part, ec, 2, -3},
		{"NaN weight", part, ec, 2, math.NaN()},
	}
	for _, c := range cases {
		if _, err := NewSparseCutRule(c.part, c.ec, c.k, c.weight); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestVanillaRuleDelta(t *testing.T) {
	r := NewVanillaRule()
	if d := r.Delta(0, 0, 2, 6); d != 2 {
		t.Errorf("delta %g, want 2", d)
	}
	if r.Name() == "" {
		t.Error("empty rule name")
	}
}
