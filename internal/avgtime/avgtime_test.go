package avgtime

import (
	"testing"

	"sparsecut/internal/core"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	g := graph.Complete(4)
	x0 := []float64{1, -1, 1, -1}
	f := vanillaEnsembleFactory(g, x0)
	bad := []Config{
		{Trials: -1},
		{MarginFactor: 2},
		{MaxTime: -1},
	}
	for i, cfg := range bad {
		if _, err := EstimateBatched(g, nil, f, cfg); err == nil {
			t.Errorf("config %d not rejected: %+v", i, cfg)
		}
	}
	if _, err := EstimateBatched(g, nil, nil, Config{}); err == nil {
		t.Error("nil factory not rejected")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	g := graph.Complete(4)
	f := func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewVanillaEnsemble(g, []float64{1}, replicas) // wrong length
	}
	if _, err := EstimateBatched(g, nil, f, Config{Trials: 1}); err == nil {
		t.Error("factory error not propagated")
	}
}

func TestAlreadyAveragedIsZero(t *testing.T) {
	g := graph.Complete(4)
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, []float64{3, 3, 3, 3}), Config{Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav != 0 {
		t.Errorf("Tav = %v for constant start, want 0", res.Tav)
	}
	if res.Censored != 0 {
		t.Error("constant start censored")
	}
}

func TestVanillaOnCompleteGraph(t *testing.T) {
	// K_16: lambda2 = 16, analytic bound Tvan <= 6/16 = 0.375. The measured
	// value must be positive and within the bound's order of magnitude.
	g := graph.Complete(16)
	x0, err := gossip.Spike(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav <= 0 {
		t.Fatalf("Tav = %v, want positive", res.Tav)
	}
	if res.Tav > 0.375*3 {
		t.Errorf("Tav = %v far above analytic bound 0.375", res.Tav)
	}
	if res.Censored != 0 {
		t.Errorf("%d trials censored", res.Censored)
	}
	if len(res.PerTrial) != 15 {
		t.Errorf("%d per-trial values", len(res.PerTrial))
	}
	if res.Events <= 0 {
		t.Error("no events recorded")
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestMeasureTvanAgreesWithSpectralBound(t *testing.T) {
	// Tvan measured from a spike (all variance at one node, as E10 measures
	// its side Tvans) must be below the analytic bound 6/lambda2 (it is an
	// upper bound) and above a small fraction of it.
	g := graph.Complete(12)
	x0, err := gossip.Spike(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bound := 6.0 / 12
	if res.Tav > bound {
		t.Errorf("measured Tvan %v exceeds analytic bound %v", res.Tav, bound)
	}
	if res.Tav < bound/30 {
		t.Errorf("measured Tvan %v implausibly far below bound %v", res.Tav, bound)
	}
}

func TestDumbbellVanillaScalesLinearly(t *testing.T) {
	// Theorem 1: on a symmetric dumbbell with one cut edge, vanilla needs
	// Tav = Omega(n). Doubling n should roughly double Tav.
	measure := func(n int) float64 {
		g, p, err := graph.Dumbbell(n/2, n/2, 1)
		if err != nil {
			t.Fatal(err)
		}
		x0 := gossip.CutIndicator(p)
		res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 7, Seed: 11, MaxTime: 1e4})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tav
	}
	t16, t64 := measure(16), measure(64)
	if t64 < 2*t16 {
		t.Errorf("Tav(64) = %v not clearly larger than Tav(16) = %v (want ~4x)", t64, t16)
	}
}

func TestAlgorithmABeatsVanillaOnDumbbell(t *testing.T) {
	// The headline claim, at test scale: on a symmetric dumbbell Algorithm A
	// is much faster than vanilla.
	g, p, err := graph.Dumbbell(24, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(p)
	vanilla, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 7, Seed: 5, MaxTime: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	algA, err := EstimateBatched(g, nil, aEnsembleFactory(g, x0, core.WithPartition(p)), Config{Trials: 7, Seed: 5, MaxTime: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if algA.Censored > 0 {
		t.Fatalf("algorithm A censored %d trials", algA.Censored)
	}
	if algA.Tav >= vanilla.Tav/2 {
		t.Errorf("algorithm A Tav %v vs vanilla %v: expected clear win", algA.Tav, vanilla.Tav)
	}
}

func TestQuietPeriodUsesEpochHint(t *testing.T) {
	// An algorithm whose variance collapses quickly but then spikes at a
	// swap must not be declared converged prematurely. Construct algorithm A
	// with paper weight on equal sides (the oscillating regime): the
	// estimator should either censor or report a large last-exceedance, not
	// a tiny one.
	g, p, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(p)
	res, err := EstimateBatched(g, nil, aEnsembleFactory(g, x0, core.WithPartition(p), core.WithWeightRule(core.WeightPaper)),
		Config{Trials: 3, Seed: 2, MaxTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Oscillation means the variance keeps returning to ~var0 forever.
	if res.Censored != 3 {
		t.Errorf("expected all trials censored in oscillating regime, got %d/3 (Tav=%v)", res.Censored, res.Tav)
	}
	// The quiet period is two epochs of an ensemble of A runs, and one
	// time unit for an ensemble without epochs.
	a, err := core.New(g, x0, core.WithPartition(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		f    EnsembleFactory
		want float64
	}{
		{aEnsembleFactory(g, x0, core.WithPartition(p)), 2 * a.EpochDuration()},
		{vanillaEnsembleFactory(g, x0), 1},
	} {
		kern, err := tc.f(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q := (Config{}).tracked(1, kern).Quiet; q != tc.want {
			t.Errorf("%T: quiet period %v, want %v", kern, q, tc.want)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Complete(8)
	x0, err := gossip.Spike(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 4, Seed: 123})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Tav != b.Tav || a.Events != b.Events {
		t.Error("estimate not deterministic for fixed seed")
	}
}

func TestCensoringAtTinyMaxTime(t *testing.T) {
	// A path graph cannot average in time 0.001: the trial must censor.
	g := graph.Path(32)
	x0 := gossip.Linear(32)
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 2, MaxTime: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 2 {
		t.Errorf("censored = %d, want 2", res.Censored)
	}
}

func TestEstimateWithRatesNodeClockSlower(t *testing.T) {
	// Under the node-clock model the dumbbell's cut edge ticks at rate
	// ~4/n instead of 1, so vanilla's averaging time must grow by ~n/4.
	g, p, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(p)
	edgeClock, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 5, Seed: 3, MaxTime: 1e4, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := EstimateBatched(g, sim.NodeClockRates(g), vanillaEnsembleFactory(g, x0),
		Config{Trials: 5, Seed: 3, MaxTime: 1e5, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nodeClock.Tav < 2*edgeClock.Tav {
		t.Errorf("node-clock Tav %v should be much larger than edge-clock %v", nodeClock.Tav, edgeClock.Tav)
	}
}

func TestEstimateWithRatesValidation(t *testing.T) {
	g := graph.Complete(4)
	x0, err := gossip.Spike(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong rate vector length must surface as an error, not a panic.
	if _, err := EstimateBatched(g, []float64{1}, vanillaEnsembleFactory(g, x0), Config{Trials: 1}); err == nil {
		t.Error("rate length mismatch not rejected")
	}
}

// aEnsembleFactory builds ensembles of Algorithm A runs on g from x0.
func aEnsembleFactory(g *graph.Graph, x0 []float64, opts ...core.Option) EnsembleFactory {
	return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return core.NewEnsemble(replicas, func(int) (*core.SparseCutAveraging, error) { return core.New(g, x0, opts...) })
	}
}
