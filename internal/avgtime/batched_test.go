package avgtime

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/stats"
)

// vanillaEnsembleFactory adapts gossip.NewVanillaEnsemble to the batched
// estimator's factory signature.
func vanillaEnsembleFactory(g *graph.Graph, x0 []float64) EnsembleFactory {
	return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewVanillaEnsemble(g, x0, replicas)
	}
}

// The time-bridged batched estimator must sample the same last-exceedance
// distribution as the per-event oracle (perEventEstimate, the "legacy"
// path): two-sample KS test of the per-trial Tav samples on a sparse-cut
// dumbbell and a complete graph.
// This is the distributional contract of the Gamma bridging (a chunk's
// elapsed time is the sum of its per-event exponential gaps) and of the
// Beta interpolation of within-chunk exceedance times.
func TestBatchedVsLegacyTavKS(t *testing.T) {
	const trials = 120
	// Two-sample KS critical value at alpha = 0.001 for n = m = trials.
	crit := 1.949 * math.Sqrt(2.0/trials)
	cases := []struct {
		name  string
		build func() (*graph.Graph, []float64)
	}{
		{"dumbbell", func() (*graph.Graph, []float64) {
			g, part, err := graph.Dumbbell(12, 12, 1)
			if err != nil {
				t.Fatal(err)
			}
			return g, gossip.CutIndicator(part)
		}},
		{"complete", func() (*graph.Graph, []float64) {
			g := graph.Complete(16)
			x0, err := gossip.Spike(16, 0)
			if err != nil {
				t.Fatal(err)
			}
			return g, x0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, x0 := tc.build()
			cfg := Config{Trials: trials, Seed: 1234, MarginFactor: 1}
			legacy, err := perEventEstimate(g, nil, vanillaPerEvent(g, x0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if legacy.Censored != 0 || batched.Censored != 0 {
				t.Fatalf("unexpected censoring: legacy %d, batched %d", legacy.Censored, batched.Censored)
			}
			d := stats.KSDistance(legacy.PerTrial, batched.PerTrial)
			if d > crit {
				t.Errorf("KS distance %.4f between legacy and batched Tav samples exceeds %.4f (legacy Tav=%.4g, batched Tav=%.4g)",
					d, crit, legacy.Tav, batched.Tav)
			}
		})
	}
}

// Same KS contract under heterogeneous rates: the superposition is still
// Poisson at the total rate, with picks through the engine's alias table
// against the oracle's binary search over cumulative rates.
func TestBatchedVsLegacyTavKSHeterogeneous(t *testing.T) {
	const trials = 100
	crit := 1.949 * math.Sqrt(2.0/trials)
	g, part, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	r := rng.New(5)
	rates := make([]float64, g.NumEdges())
	for i := range rates {
		rates[i] = 0.5 + 1.5*r.Float64()
	}
	cfg := Config{Trials: trials, Seed: 99, MarginFactor: 1}
	legacy, err := perEventEstimate(g, rates, vanillaPerEvent(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := EstimateBatched(g, rates, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.KSDistance(legacy.PerTrial, batched.PerTrial); d > crit {
		t.Errorf("KS distance %.4f exceeds %.4f", d, crit)
	}
}

// Push-sum ensembles consume the per-trial algorithm streams, which derive
// from the seed alone: a rerun gives the same Result.
func TestEstimateBatchedPushSumDeterministic(t *testing.T) {
	g := graph.Complete(10)
	x0, err := gossip.Spike(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(_ int, algStreams []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewPushSumEnsemble(g, x0, algStreams)
	}
	var results []Result
	for range 2 {
		res, err := EstimateBatched(g, nil, factory, Config{Trials: 6, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("push-sum results diverged between reruns: %+v vs %+v", results[0], results[1])
	}
	if results[0].Tav <= 0 || len(results[0].PerTrial) != 6 {
		t.Errorf("Tav %v over %d trials, want a positive Tav over 6", results[0].Tav, len(results[0].PerTrial))
	}
}

// An already-averaged initial vector yields zero averaging time without
// simulating.
func TestEstimateBatchedAlreadyAveraged(t *testing.T) {
	g := graph.Complete(6)
	x0 := []float64{3, 3, 3, 3, 3, 3}
	res, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav != 0 || res.Events != 0 || len(res.PerTrial) != 4 {
		t.Errorf("want all-zero result without events, got %+v", res)
	}
}

// Every trial is measured against one varX(0), so an ensemble whose
// replicas start from different vectors is an error.
func TestEstimateBatchedRejectsMixedStarts(t *testing.T) {
	g := graph.Complete(6)
	spike, err := gossip.Spike(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	wide := []float64{4, 0, 0, 0, 0, 0}
	trial := 0
	factory := func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
		return gossip.NewEnsemble(replicas, func(int) (gossip.Algorithm, error) {
			trial++
			if trial == 3 {
				return gossip.NewVanilla(g, wide)
			}
			return gossip.NewVanilla(g, spike)
		})
	}
	_, err = EstimateBatched(g, nil, factory, Config{Trials: 4})
	if err == nil || !strings.Contains(err.Error(), "trial 2 starts at variance") {
		t.Errorf("replicas with different initial variances: err %v, want trial 2 rejected", err)
	}
}

func TestEstimateBatchedValidation(t *testing.T) {
	g := graph.Complete(6)
	if _, err := EstimateBatched(g, nil, nil, Config{}); err == nil {
		t.Error("nil factory not rejected")
	}
	x0, err := gossip.Spike(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), Config{Trials: -1}); err == nil {
		t.Error("negative trials not rejected")
	}
	if _, err := EstimateBatched(g, []float64{1}, vanillaEnsembleFactory(g, x0), Config{}); err == nil {
		t.Error("rate length mismatch not rejected")
	}
}

// The batched estimate must agree with the per-event oracle's point
// estimate within Monte-Carlo noise on a well-conditioned graph (coarse
// sanity on top of the KS tests).
func TestEstimateBatchedCloseToLegacy(t *testing.T) {
	g := graph.Complete(24)
	x0, err := gossip.Spike(24, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Trials: 31, Seed: 2, MarginFactor: 1}
	legacy, err := perEventEstimate(g, nil, vanillaPerEvent(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := batched.Tav / legacy.Tav; ratio < 0.5 || ratio > 2 {
		t.Errorf("batched Tav %v vs legacy %v (ratio %v)", batched.Tav, legacy.Tav, ratio)
	}
}

// Config.Observer is telemetry-only: the Result must be byte-identical
// with and without one, and the forwarded meter must stay monotone.
func TestEstimateBatchedObserverInert(t *testing.T) {
	g, part, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	base := Config{Trials: 9, Seed: 11, MarginFactor: 1}

	plain, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), base)
	if err != nil {
		t.Fatal(err)
	}

	var got []sim.BatchStats
	cfg := base
	cfg.Observer = func(st sim.BatchStats) { got = append(got, st) }
	observed, err := EstimateBatched(g, nil, vanillaEnsembleFactory(g, x0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("result diverged under observation: %+v vs %+v", plain, observed)
	}
	if len(got) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Events <= got[i-1].Events {
			t.Errorf("meter not monotone: %+v then %+v", got[i-1], got[i])
		}
	}
	if last := got[len(got)-1]; last.Events != observed.Events {
		t.Errorf("final observed events %d != Result.Events %d", last.Events, observed.Events)
	}
}
