package avgtime

import (
	"math"
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
	f := VanillaFactory(g, x0)
	bad := []Config{
		{Trials: -1},
		{Threshold: 1.5},
		{Threshold: -0.1},
		{Quantile: 1.5},
		{MarginFactor: 2},
		{MaxTime: -1},
		{QuietTime: -1},
	}
	for i, cfg := range bad {
		if _, err := Estimate(g, f, cfg); err == nil {
			t.Errorf("config %d not rejected: %+v", i, cfg)
		}
	}
	if _, err := Estimate(g, nil, Config{}); err == nil {
		t.Error("nil factory not rejected")
	}
}

func TestFactoryErrorPropagates(t *testing.T) {
	g := graph.Complete(4)
	f := func(int, *rng.RNG) (gossip.Algorithm, error) {
		return gossip.NewVanilla(g, []float64{1}) // wrong length
	}
	if _, err := Estimate(g, f, Config{Trials: 1}); err == nil {
		t.Error("factory error not propagated")
	}
}

func TestAlreadyAveragedIsZero(t *testing.T) {
	g := graph.Complete(4)
	res, err := Estimate(g, VanillaFactory(g, []float64{3, 3, 3, 3}), Config{Trials: 3})
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
	res, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 15, Seed: 7})
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
	// Measured Tvan must be below the analytic bound 6/lambda2 (it is an
	// upper bound) and above a small fraction of it.
	g := graph.Complete(12)
	res, err := MeasureTvan(g, Config{Trials: 15, Seed: 3})
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
		res, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 7, Seed: 11, MaxTime: 1e4})
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
	vanilla, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 7, Seed: 5, MaxTime: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	algA, err := Estimate(g, func(int, *rng.RNG) (gossip.Algorithm, error) {
		return core.New(g, x0, core.WithPartition(p))
	}, Config{Trials: 7, Seed: 5, MaxTime: 1e4})
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
	res, err := Estimate(g, func(int, *rng.RNG) (gossip.Algorithm, error) {
		return core.New(g, x0, core.WithPartition(p), core.WithWeightRule(core.WeightPaper))
	}, Config{Trials: 3, Seed: 2, MaxTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Oscillation means the variance keeps returning to ~var0 forever.
	if res.Censored != 3 {
		t.Errorf("expected all trials censored in oscillating regime, got %d/3 (Tav=%v)", res.Censored, res.Tav)
	}
}

func TestEpsilonConfig(t *testing.T) {
	cfg := EpsilonConfig(0.1)
	if math.Abs(cfg.Threshold-0.01) > 1e-15 {
		t.Errorf("threshold %v", cfg.Threshold)
	}
	if math.Abs(cfg.Quantile-0.9) > 1e-15 {
		t.Errorf("quantile %v", cfg.Quantile)
	}
	// And it should run.
	g := graph.Complete(8)
	x0, err := gossip.Spike(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trials = 5
	res, err := Estimate(g, VanillaFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav <= 0 {
		t.Errorf("epsilon time %v", res.Tav)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.Complete(8)
	x0, err := gossip.Spike(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() Result {
		res, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 4, Seed: 123})
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
	res, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 2, MaxTime: 0.001})
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
	edgeClock, err := Estimate(g, VanillaFactory(g, x0), Config{Trials: 5, Seed: 3, MaxTime: 1e4, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodeClock, err := EstimateWithRates(g, sim.NodeClockRates(g), VanillaFactory(g, x0),
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
	if _, err := EstimateWithRates(g, []float64{1}, VanillaFactory(g, x0), Config{Trials: 1}); err == nil {
		t.Error("rate length mismatch not rejected")
	}
}

// hideKernel wraps an Algorithm so it no longer implements sim.TickKernel,
// forcing runTrial onto the HandleTick fallback.
type hideKernel struct{ inner gossip.Algorithm }

func (h hideKernel) Name() string                         { return h.inner.Name() }
func (h hideKernel) HandleTick(e graph.EdgeID, t float64) { h.inner.HandleTick(e, t) }
func (h hideKernel) Values() []float64                    { return h.inner.Values() }
func (h hideKernel) Mean() float64                        { return h.inner.Mean() }
func (h hideKernel) Variance() float64                    { return h.inner.Variance() }

// The fused tracked loop and the generic fallback must agree on the
// estimate: same events, same censoring, per-trial last-exceedance times
// equal to float accuracy.
func TestKernelAndFallbackTrialsAgree(t *testing.T) {
	g, p, err := graph.Dumbbell(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(p)
	cfg := Config{Trials: 5, Seed: 17, MaxTime: 1e4}
	kernel, err := Estimate(g, VanillaFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := Estimate(g, func(int, *rng.RNG) (gossip.Algorithm, error) {
		v, err := gossip.NewVanilla(g, x0)
		return hideKernel{inner: v}, err
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kernel.Censored != fallback.Censored || kernel.Events != fallback.Events {
		t.Errorf("kernel (censored=%d, events=%d) vs fallback (censored=%d, events=%d)",
			kernel.Censored, kernel.Events, fallback.Censored, fallback.Events)
	}
	for i := range kernel.PerTrial {
		a, b := kernel.PerTrial[i], fallback.PerTrial[i]
		if a != b {
			t.Errorf("trial %d: last exceedance %v kernel vs %v fallback", i, a, b)
		}
	}
}
