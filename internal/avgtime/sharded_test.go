package avgtime

import (
	"math"
	"reflect"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/stats"
)

// TestShardedVsOracleTavKS is the acceptance cross-check of the sharded
// windowed engine: its per-trial last-exceedance samples must be
// distributed like the per-event oracle's on the same family — the
// tile/boundary superposition is an exact decomposition of the edge-clock
// process and the window only quantises the observation (well below the
// Tav scale at Window = 0.25). Two-sample KS at alpha = 0.001 on the
// dumbbell and the ring of cliques, the two sparse-cut report families.
func TestShardedVsOracleTavKS(t *testing.T) {
	const trials = 120
	crit := 1.949 * math.Sqrt(2.0/trials)
	cases := []struct {
		name string
		mat  func() (*graph.Graph, []float64)
		imp  func() (*graph.Implicit, []float64)
	}{
		{
			"dumbbell",
			func() (*graph.Graph, []float64) {
				g, part, err := graph.Dumbbell(12, 12, 1)
				if err != nil {
					t.Fatal(err)
				}
				return g, gossip.CutIndicator(part)
			},
			func() (*graph.Implicit, []float64) {
				ig, err := graph.ImplicitDumbbell(12, 12, 1)
				if err != nil {
					t.Fatal(err)
				}
				return ig, gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
			},
		},
		{
			"ringofcliques",
			func() (*graph.Graph, []float64) {
				g, part, err := graph.RingOfCliques(4, 6, 1)
				if err != nil {
					t.Fatal(err)
				}
				return g, gossip.CutIndicator(part)
			},
			func() (*graph.Implicit, []float64) {
				ig, err := graph.ImplicitRingOfCliques(4, 6, 1)
				if err != nil {
					t.Fatal(err)
				}
				return ig, gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, x0 := tc.mat()
			cfg := Config{Trials: trials, Seed: 1234, MarginFactor: 1}
			oracle, err := perEventEstimate(g, nil, vanillaPerEvent(g, x0), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ig, ix0 := tc.imp()
			sharded, err := EstimateSharded(ig, ix0, cfg, ShardedOptions{Window: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Censored != 0 || sharded.Censored != 0 {
				t.Fatalf("unexpected censoring: oracle %d, sharded %d", oracle.Censored, sharded.Censored)
			}
			d := stats.KSDistance(oracle.PerTrial, sharded.PerTrial)
			if d > crit {
				t.Errorf("KS distance %.4f between oracle and sharded Tav samples exceeds %.4f (oracle Tav=%.4g, sharded Tav=%.4g)",
					d, crit, oracle.Tav, sharded.Tav)
			}
		})
	}
}

// TestEstimateShardedWorkerDeterminism pins the byte-determinism
// contract at the estimator level: PerTrial is bit-identical for any
// worker count.
func TestEstimateShardedWorkerDeterminism(t *testing.T) {
	ig, err := graph.ImplicitRingOfCliques(5, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
	cfg := Config{Trials: 6, Seed: 9, MarginFactor: 1}
	var ref Result
	for i, workers := range []int{1, 4, 32} {
		res, err := EstimateSharded(ig, x0, cfg, ShardedOptions{Workers: workers, Window: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d result diverged:\n%+v\nvs\n%+v", workers, res, ref)
		}
	}
}

// TestEstimateShardedValidation covers the error paths.
func TestEstimateShardedValidation(t *testing.T) {
	ig, err := graph.ImplicitDumbbell(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateSharded(ig, []float64{1, 2}, Config{}, ShardedOptions{}); err == nil {
		t.Error("length mismatch not rejected")
	}
	x0 := gossip.CutIndicatorPrefix(8, 4)
	if _, err := EstimateSharded(ig, x0, Config{Trials: -1}, ShardedOptions{}); err == nil {
		t.Error("bad trials not rejected")
	}
}

// TestEstimateShardedAlreadyAveraged: a constant vector yields zero
// last-exceedance times without simulating.
func TestEstimateShardedAlreadyAveraged(t *testing.T) {
	ig, err := graph.ImplicitDumbbell(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, 8)
	for i := range x0 {
		x0[i] = 3
	}
	res, err := EstimateSharded(ig, x0, Config{Trials: 3}, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tav != 0 || res.Events != 0 {
		t.Fatalf("constant vector: Tav=%v Events=%d, want 0/0", res.Tav, res.Events)
	}
}
