package sparsecut

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	// The README quick-start, as a test.
	g, part, err := NewDumbbell(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	alg, err := NewAlgorithmA(g, x0, WithPartition(part))
	if err != nil {
		t.Fatal(err)
	}
	res := Simulate(g, alg, 50, 1)
	if res.VarianceRatio > 1e-6 {
		t.Errorf("variance ratio %v after t=50", res.VarianceRatio)
	}
	if math.Abs(res.Mean) > 1e-9 {
		t.Errorf("mean drifted to %v", res.Mean)
	}
	if res.Events <= 0 || res.Time < 50 {
		t.Errorf("res = %+v", res)
	}
	if alg.Swaps() == 0 {
		t.Error("no swaps fired")
	}
}

func TestVanillaVsAlgorithmA(t *testing.T) {
	g, part, err := NewDumbbell(24, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	van, err := NewVanillaGossip(g, x0)
	if err != nil {
		t.Fatal(err)
	}
	algA, err := NewAlgorithmA(g, x0, WithPartition(part))
	if err != nil {
		t.Fatal(err)
	}
	horizon := 15.0
	rv := Simulate(g, van, horizon, 2)
	ra := Simulate(g, algA, horizon, 2)
	if ra.VarianceRatio >= rv.VarianceRatio {
		t.Errorf("A ratio %v not below vanilla %v at t=%v", ra.VarianceRatio, rv.VarianceRatio, horizon)
	}
}

func TestConvexAndPushSumConstructors(t *testing.T) {
	g, _, err := NewDumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := RandomInit(3, g.NumNodes())
	c, err := NewConvexGossip(g, x0, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPushSum(g, x0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Convex algorithms cross the dumbbell's single cut edge slowly
	// (that is Theorem 1); the horizon checks convergence trend, not speed.
	for _, alg := range []Algorithm{c, p} {
		res := Simulate(g, alg, 100, 5)
		if res.VarianceRatio > 1e-4 {
			t.Errorf("%s: ratio %v", alg.Name(), res.VarianceRatio)
		}
	}
	if _, err := NewConvexGossip(g, x0, 2); err == nil {
		t.Error("alpha out of range not rejected")
	}
}

func TestFindSparseCutOnDumbbell(t *testing.T) {
	g, planted, err := NewDumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FindSparseCut(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != planted.CutSize() {
		t.Errorf("detected cut %d, planted %d", p.CutSize(), planted.CutSize())
	}
}

func TestAlgebraicConnectivity(t *testing.T) {
	g, _, err := NewDumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	lam2, err := AlgebraicConnectivity(g)
	if err != nil {
		t.Fatal(err)
	}
	if lam2 <= 0 || lam2 > 1 {
		t.Errorf("dumbbell lambda2 = %v, want small positive", lam2)
	}
}

func TestGraphIO(t *testing.T) {
	g, part, err := NewPlantedPartition(5, 10, 12, 0.8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("graph round trip changed edge count")
	}
	var dot bytes.Buffer
	if err := WriteDOT(&dot, g, part); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph") {
		t.Error("DOT output malformed")
	}
}

func TestNewSensorField(t *testing.T) {
	g, part, err := NewSensorField(7, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part.CutSize() != 2 {
		t.Errorf("doors = %d, want 2", part.CutSize())
	}
	if !g.HasPositions() {
		t.Error("sensor field should carry positions")
	}
}

func TestMeasureAveragingTime(t *testing.T) {
	g, part, err := NewDumbbell(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	res, err := MeasureAveragingTime(g, func(int, uint64) (Algorithm, error) {
		return NewVanillaGossip(g, x0)
	}, TavConfig{Trials: 3, MaxTime: 1e3, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav <= 0 {
		t.Errorf("Tav = %v", res.Tav)
	}
	if res.Censored != 0 {
		t.Errorf("censored = %d", res.Censored)
	}
}

func TestMeasureAveragingTimeBatched(t *testing.T) {
	g, part, err := NewDumbbell(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	res, err := MeasureAveragingTimeBatched(g, func(replicas int, _ []uint64) (BatchKernel, error) {
		return NewVanillaEnsemble(g, x0, replicas)
	}, TavConfig{Trials: 5, MaxTime: 1e3, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav <= 0 {
		t.Errorf("Tav = %v", res.Tav)
	}
	if res.Censored != 0 {
		t.Errorf("censored = %d", res.Censored)
	}
}

func TestBatchEngineFacade(t *testing.T) {
	g, part, err := NewDumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	ens, err := NewVanillaEnsemble(g, x0, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBatchEngine(g, ens, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunEvents(1000)
	if eng.Events() != 4000 {
		t.Errorf("events = %d, want 4000", eng.Events())
	}
	v0 := ens.ReplicaVariance(0)
	for rep := 1; rep < 4; rep++ {
		if v := ens.ReplicaVariance(rep); v == v0 {
			t.Errorf("replicas %d and 0 produced identical variance %v from distinct seeds", rep, v)
		}
	}
}

func TestShardEngineFacade(t *testing.T) {
	g, err := NewImplicitDumbbell(24, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 48 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	x0 := make([]float64, 48)
	for u := 0; u < 24; u++ {
		x0[u] = 1
	}
	run := func(workers int) (float64, int64) {
		st, err := NewFlatState(x0, g.Tiling().Bounds())
		if err != nil {
			t.Fatal(err)
		}
		eng := NewShardEngine(g.Tiling(), st, 7, ShardConfig{Workers: workers})
		eng.RunUntil(0.5)
		return st.Variance(), eng.Events()
	}
	v1, e1 := run(1)
	v4, e4 := run(4)
	if e1 == 0 {
		t.Fatal("no events simulated")
	}
	if v1 != v4 || e1 != e4 {
		t.Errorf("worker count changed results: (%v, %d) vs (%v, %d)", v1, e1, v4, e4)
	}

	res, err := MeasureAveragingTimeSharded(g, x0, TavConfig{Trials: 3, MaxTime: 1e3, MarginFactor: 1}, ShardedTavOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav <= 0 || res.Censored != 0 {
		t.Errorf("sharded Tav = %v (censored %d)", res.Tav, res.Censored)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	all := Experiments()
	if len(all) != 15 {
		t.Fatalf("%d experiments", len(all))
	}
	var buf bytes.Buffer
	metrics, err := RunExperiment(&buf, "E7", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if metrics["beta"] <= 0 {
		t.Error("E7 metrics missing")
	}
	if _, err := RunExperiment(&buf, "E99", true, 2); err == nil {
		t.Error("unknown experiment not rejected")
	}
}

func TestSimulatePanicsOnNilAlgorithm(t *testing.T) {
	g, _, err := NewDumbbell(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Simulate(nil) did not panic")
		}
	}()
	Simulate(g, nil, 1, 1)
}

func TestWeightRuleReexports(t *testing.T) {
	g, part, err := NewDumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAlgorithmA(g, WorstCaseInit(part), WithPartition(part), WithWeightRule(WeightPaper))
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight() != 8 {
		t.Errorf("paper weight = %v, want n1 = 8", a.Weight())
	}
	b, err := NewAlgorithmA(g, WorstCaseInit(part), WithPartition(part),
		WithEpochTicks(3), WithWeight(2.5), WithCutEdge(part.CutEdges()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if b.Weight() != 2.5 || b.EpochTicks() != 3 {
		t.Errorf("custom config not applied: %v, %v", b.Weight(), b.EpochTicks())
	}
}

func TestDecentralizedRuntimeFacade(t *testing.T) {
	g, part, err := NewDumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	rule, err := NewSparseCutExchange(part, part.CutEdges()[0], 2, ExactSwapWeight(part))
	if err != nil {
		t.Fatal(err)
	}
	// A transport carries the traffic between shards, one address each.
	tr, err := NewDropTransport(NewChanTransport(4*g.NumNodes()), 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewShardRuntime(g, x0, rule, ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale: 4 * time.Millisecond,
			Seed:      1,
			Transport: tr,
		},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if cl.Exchanges() == 0 {
		t.Fatal("no exchanges committed")
	}
	if math.Abs(cl.Mean()) > 1e-9 {
		t.Errorf("mean drifted to %v", cl.Mean())
	}

	// The vanilla exchange rule and the delay transport compose the same way.
	vtr, err := NewDelayTransport(NewChanTransport(4*g.NumNodes()), time.Millisecond, 8)
	if err != nil {
		t.Fatal(err)
	}
	vcl, err := NewShardRuntime(g, x0, NewAveragingExchange(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale:   4 * time.Millisecond,
			Seed:        2,
			Transport:   vtr,
			LockTimeout: 8 * time.Millisecond, // must exceed the delay round trip
		},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vcl.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if vcl.Exchanges() == 0 {
		t.Fatal("no exchanges committed with the averaging rule")
	}
}

func TestScenarioSweepFacade(t *testing.T) {
	// The new composites are reachable from the facade...
	g, part, err := NewRingOfCliques(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 16 || part.CutSize() != 2 {
		t.Fatalf("ring of cliques: %d nodes, cut %d", g.NumNodes(), part.CutSize())
	}
	if _, part, err = NewHierarchicalDumbbell(16, 1, 1); err != nil || part.CutSize() != 1 {
		t.Fatalf("hierarchical dumbbell: cut %d, err %v", part.CutSize(), err)
	}
	// ...and so is the whole registry.
	fams := ScenarioFamilies()
	if len(fams) < 15 {
		t.Fatalf("only %d scenario families registered", len(fams))
	}
	res, err := ResolveScenario(Scenario{
		Graph: ScenarioGraph{Family: "ringofcliques", N: 16},
		Algo:  ScenarioAlgo{Name: "A"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition == nil {
		t.Fatal("ring of cliques should resolve with a planted partition")
	}
	// A tiny sweep through the facade stays deterministic across workers.
	grid := SweepGrid{
		Base:  Scenario{Graph: ScenarioGraph{Family: "dumbbell", Cut: 1}, Stop: ScenarioStop{Trials: 2, MaxTime: 100}},
		Ns:    []int{12},
		Algos: []string{"vanilla", "A"},
	}
	rep1, err := RunSweep(grid, SweepConfig{Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := RunSweep(grid, SweepConfig{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Cells) != 2 || len(rep2.Cells) != 2 {
		t.Fatalf("expected 2 cells, got %d and %d", len(rep1.Cells), len(rep2.Cells))
	}
	for i := range rep1.Cells {
		if rep1.Cells[i] != rep2.Cells[i] {
			t.Errorf("cell %d differs across worker counts", i)
		}
	}
}

func TestModelCheckerFacade(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("nodes 3\n0 1\n1 2\n0 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	spec := CheckSpec{Graph: g, X0: []float64{1, 5, 0}, Rule: CheckVanillaRule()}
	opt := CheckOptions{MaxDepth: 10, Drops: true, Dups: true, Crashes: true}

	res, err := CheckExchange(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("correct protocol violated an invariant:\n%+v", res.Counterexample.Violation)
	}
	if res.StatesExplored == 0 {
		t.Fatal("no states explored")
	}

	// A seeded bug — one of the two real ones the checker found in the
	// protocol's own history — is caught, and its trace replays.
	mu, ok := ParseProtocolMutation("lax-watermark-dedup")
	if !ok {
		t.Fatal("mutation name not recognised")
	}
	opt.Mutation = mu
	res, err = CheckExchange(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("seeded mutation not caught")
	}
	v, err := ReplayTrace(res.Counterexample)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Counterexample.Violation.Same(v) {
		t.Fatalf("replayed violation %+v differs from recorded %+v", v, res.Counterexample.Violation)
	}

	// Random-walk mode through the facade stays clean on the correct
	// protocol.
	wres, err := CheckExchangeWalks(CheckSpec{Graph: g, X0: []float64{1, 5, 0}, Rule: CheckVanillaRule()},
		CheckOptions{MaxDepth: 16, Drops: true}, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Counterexample != nil {
		t.Fatalf("random walk found a violation in the correct protocol:\n%+v", wres.Counterexample.Violation)
	}
}

func TestCrashScheduleFacade(t *testing.T) {
	g, part, err := NewDumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	cl, err := NewShardRuntime(g, x0, NewAveragingExchange(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale: 4 * time.Millisecond,
			Seed:      9,
			Crashes: []CrashEvent{
				{Node: 0, At: 1, Recover: 3},
				{Node: 7, At: 2}, // down until the drain force-recovers it
			},
		},
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	if cl.Crashes() != 2 {
		t.Fatalf("crash schedule fired %d times, want 2", cl.Crashes())
	}
	if cl.Exchanges() == 0 {
		t.Fatal("no exchanges committed around the crashes")
	}
	if math.Abs(cl.Mean()) > 1e-9 {
		t.Errorf("mean drifted to %v across a crash-faulted run", cl.Mean())
	}
}
