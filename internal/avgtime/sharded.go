package avgtime

// EstimateSharded is the large-run estimator: trials run on the sharded
// windowed PDES engine over an implicit graph (DESIGN.md §13) instead of
// a materialised edge list, so a single 10^6-node replica fits in RAM.
// It serves the vanilla (monotone) kernel only — FlatState is the only
// ShardKernel — which is exactly the regime where the windowed
// last-exceedance interpolation is sound. Each barrier reads the exact
// variance of the values (FlatState keeps no moments between barriers).

import (
	"fmt"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// ShardedOptions tunes EstimateSharded beyond the shared Config.
type ShardedOptions struct {
	// Workers caps the tile-advancing goroutines per trial (<= 1 runs
	// inline). Results are byte-identical for any value.
	Workers int
	// Window is the engine barrier spacing Δ (<= 0 = sim.DefaultWindow).
	// The tracked statistic resolves to within one window.
	Window float64
}

// EstimateSharded measures vanilla averaging time on an implicit graph
// with the sharded engine. Per trial it derives the same two root-stream
// splits as EstimateBatched (one reserved algorithm stream, one
// simulation stream), so seed accounting lines up across estimators.
func EstimateSharded(g *graph.Implicit, x0 []float64, cfg Config, opt ShardedOptions) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(x0) != g.NumNodes() {
		return Result{}, fmt.Errorf("avgtime: initial vector has %d entries for %d nodes", len(x0), g.NumNodes())
	}
	til := g.Tiling()
	bounds := til.Bounds()
	root := rng.New(cfg.Seed)
	res := Result{PerTrial: make([]float64, 0, cfg.Trials)}
	for trial := 0; trial < cfg.Trials; trial++ {
		_ = root.Split() // the algorithm stream: vanilla consumes none, but the derivation order is shared
		simRNG := root.Split()
		st, err := gossip.NewFlatState(x0, bounds)
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: trial %d: %w", trial, err)
		}
		var0 := st.Variance()
		if var0 == 0 {
			res.PerTrial = append(res.PerTrial, 0)
			continue
		}
		eng := sim.NewShardEngine(til, st, simRNG, sim.ShardConfig{
			Workers: opt.Workers,
			Window:  opt.Window,
		})
		tr := eng.RunTracked(cfg.tracked(var0, st))
		if tr.Censored {
			res.Censored++
		}
		res.Events += eng.Events()
		res.PerTrial = append(res.PerTrial, tr.LastExceed)
	}
	if err := res.summarise(); err != nil {
		return Result{}, err
	}
	return res, nil
}
