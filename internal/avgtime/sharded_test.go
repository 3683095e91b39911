package avgtime

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
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

// shardedTrial is one EstimateSharded trial as the tracked golden digest
// sees it: the last-exceedance time, the trial's events, whether it was
// censored, and the state's Variance() when RunTracked returned.
type shardedTrial struct {
	last     float64
	events   int64
	censored bool
	variance float64
}

// shardedTrials replays EstimateSharded's per-trial loop — the same stream
// derivation, state and tracked stop rule — and keeps what the estimator's
// Result folds away: each trial's own events, censoring and final variance.
func shardedTrials(t *testing.T, g *graph.Implicit, x0 []float64, cfg Config, opt ShardedOptions) []shardedTrial {
	t.Helper()
	cfg = cfg.withDefaults()
	til := g.Tiling()
	root := rng.New(cfg.Seed)
	var out []shardedTrial
	for trial := 0; trial < cfg.Trials; trial++ {
		_ = root.Split()
		simRNG := root.Split()
		st, err := gossip.NewFlatState(x0, til.Bounds())
		if err != nil {
			t.Fatal(err)
		}
		var0 := st.Variance()
		eng := sim.NewShardEngine(til, st, simRNG, sim.ShardConfig{Workers: opt.Workers, Window: opt.Window})
		tr := eng.RunTracked(cfg.tracked(var0, st))
		out = append(out, shardedTrial{tr.LastExceed, eng.Events(), tr.Censored, st.Variance()})
	}
	return out
}

// TestEstimateShardedTrackedGoldenDigest pins the sharded engine's tracked
// loop (RunTracked and the exact variance it reads at every barrier)
// through EstimateSharded, on a 24+24 implicit dumbbell, a ring of four
// 24-cliques, the dumbbell again with a MaxTime that censors two of its
// five trials, and a ring of eight 12-cliques, at 1 and 2 workers. The
// eight-tile ring is the case whose bits move when the tiles are summed
// in another order (the others' reads happen not to). The FNV-64a digest
// covers each trial's LastExceed bits, events, censoring and final
// Variance() bits; the replayed trials must also add up to the
// estimator's own Result.
// TestShardEngineGoldenDigest pins only RunUntil's values, so this is the
// check that the barrier reads, their per-tile summation order and the
// crossing interpolation do not move.
func TestEstimateShardedTrackedGoldenDigest(t *testing.T) {
	dumbbell, err := graph.ImplicitDumbbell(24, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.ImplicitRingOfCliques(4, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring8, err := graph.ImplicitRingOfCliques(8, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Implicit
		cfg  Config
		want uint64
	}{
		{"dumbbell", dumbbell, Config{Trials: 5, Seed: 17}, 0x65bcbd072e77864c},
		{"ringofcliques", ring, Config{Trials: 5, Seed: 18}, 0x4b0341c40538d304},
		{"dumbbell-censored", dumbbell, Config{Trials: 5, Seed: 19, MaxTime: 250}, 0x4397ce53468aa249},
		{"ringofcliques-8", ring8, Config{Trials: 5, Seed: 20}, 0xf568d9e9ecb0c242},
	}
	for _, c := range cases {
		x0 := gossip.CutIndicatorPrefix(c.g.NumNodes(), c.g.SplitPoint())
		for _, workers := range []int{1, 2} {
			opt := ShardedOptions{Workers: workers, Window: 0.25}
			res, err := EstimateSharded(c.g, x0, c.cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			trials := shardedTrials(t, c.g, x0, c.cfg, opt)
			h := fnv.New64a()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			var events int64
			censored := 0
			for i, tr := range trials {
				if math.Float64bits(tr.last) != math.Float64bits(res.PerTrial[i]) {
					t.Fatalf("%s/workers=%d: trial %d replayed LastExceed %v, estimator %v",
						c.name, workers, i, tr.last, res.PerTrial[i])
				}
				events += tr.events
				if tr.censored {
					censored++
					put(1)
				} else {
					put(0)
				}
				put(math.Float64bits(tr.last))
				put(uint64(tr.events))
				put(math.Float64bits(tr.variance))
			}
			if events != res.Events || censored != res.Censored {
				t.Fatalf("%s/workers=%d: replayed %d events, %d censored; estimator %d, %d",
					c.name, workers, events, censored, res.Events, res.Censored)
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("%s/workers=%d: digest %#x (%d events, %d censored), want %#x",
					c.name, workers, got, events, censored, c.want)
			}
		}
	}
}
