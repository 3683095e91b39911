package sparsecut

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/core"
	"sparsecut/internal/rng"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
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
	g, part, err := NewDumbbell(5, 6, 1)
	if err != nil {
		t.Fatal(err)
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

// The facade's random graph is the scenario registry's: at the same seed
// NewSensorField builds, edge for edge and side for side, what
// Spec.Resolve (and so every CLI's -graph sensor) builds.
func TestFacadeGraphsMatchScenario(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, part, err := NewSensorField(seed, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		r, err := scenario.Spec{Graph: scenario.GraphSpec{Family: "sensor", N: 64, Cut: 2}, Seed: seed}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Edges(), r.Graph.Edges()) {
			t.Errorf("seed %d: facade %s, spec %s", seed, g, r.Graph)
		}
		for u := range g.NumNodes() {
			if part.SideOf(NodeID(u)) != r.Partition.SideOf(NodeID(u)) {
				t.Fatalf("seed %d: node %d on different sides", seed, u)
			}
		}
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

// MeasureAveragingTime runs the user's trials as one replica batch. Each
// factory call still gets its trial index and the seed of its own
// algorithm stream, split from the root before the trial's simulation
// stream; and Algorithm A's estimate is the one core.NewEnsemble's runs
// give.
func TestMeasureAveragingTimeFactoryContract(t *testing.T) {
	g, part, err := NewDumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := WorstCaseInit(part)
	root := rng.New(5)
	var want []uint64
	for range 5 {
		want = append(want, root.Split().Uint64())
		root.Split()
	}
	var got []uint64
	_, err = MeasureAveragingTime(g, func(trial int, seed uint64) (Algorithm, error) {
		if trial != len(got) {
			t.Errorf("trial %d built as call %d", trial, len(got))
		}
		got = append(got, seed)
		return NewVanillaGossip(g, x0)
	}, TavConfig{Trials: 5, Seed: 5, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("seeds %v, want %v", got, want)
	}

	cfg := TavConfig{Trials: 4, Seed: 2, MaxTime: 200}
	facade, err := MeasureAveragingTime(g, func(int, uint64) (Algorithm, error) {
		return NewAlgorithmA(g, x0, WithPartition(part))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := avgtime.EstimateBatched(g, nil, func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return core.NewEnsemble(replicas, func(int) (*core.SparseCutAveraging, error) {
			return NewAlgorithmA(g, x0, WithPartition(part))
		})
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(facade, direct) {
		t.Errorf("Algorithm A through the facade %+v, through core.NewEnsemble %+v", facade, direct)
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
	a, err := NewAlgorithmA(g, WorstCaseInit(part), WithPartition(part))
	if err != nil {
		t.Fatal(err)
	}
	if w := ExactSwapWeight(part); a.Weight() != w || w != 4 {
		t.Errorf("default weight = %v, ExactSwapWeight = %v, want n1·n2/(n1+n2) = 4", a.Weight(), w)
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
	// Message loss on the path between shards.
	cl, err := NewShardRuntime(g, x0, rule, ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale: 4 * time.Millisecond,
			Seed:      1,
			Drop:      0.1,
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

	// The vanilla exchange rule and message delay compose the same way.
	vcl, err := NewShardRuntime(g, x0, NewAveragingExchange(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale:   4 * time.Millisecond,
			Seed:        2,
			Delay:       time.Millisecond,
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
