package avgtime

import (
	"errors"
	"fmt"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/stats"
)

// EnsembleFactory builds a replica-batched kernel: R independent replicas
// of one algorithm over a shared graph (e.g. gossip.NewVanillaEnsemble or
// core.NewEnsemble).
// algStreams has length R, one private stream per replica for
// algorithm-internal randomness (push-sum direction coins); factories for
// deterministic algorithms may ignore it.
type EnsembleFactory func(replicas int, algStreams []*rng.RNG) (sim.BatchKernel, error)

// EstimateBatched measures the averaging time of the ensemble produced by
// factory on g through the replica-batched bridged engine
// (sim.BatchEngine): all trials advance in interleaved lockstep over the
// shared flat graph, inter-event exponential gaps collapse into per-chunk
// Gamma bridge draws, and the per-event work drops to one uniform edge
// pick plus a division-free moment update. It samples the same
// last-exceedance distribution as Estimate but is not stream-compatible
// with it (randomness is consumed in a different order); the package KS
// tests check the two paths against each other distributionally.
//
// nil rates mean the paper's rate-1 clocks. Config is interpreted as in
// Estimate, except that BatchWidth bounds how many trials are resident per
// batch (memory only — every trial's randomness comes from its own pair of
// child streams, derived from Config.Seed in trial order exactly as the
// legacy loop derives them, so the reported Result is byte-identical for
// any width).
//
// A kernel that reports an epoch duration (core.Ensemble, Algorithm A)
// sizes the quiet period from it, as Estimate does from the algorithm.
func EstimateBatched(g *graph.Graph, rates []float64, factory EnsembleFactory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("avgtime: nil ensemble factory")
	}
	// Per-trial streams, split from the root in trial order — the same
	// derivation as the legacy loop, independent of the batch grouping.
	root := rng.New(cfg.Seed)
	algStreams := make([]*rng.RNG, cfg.Trials)
	simStreams := make([]*rng.RNG, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		algStreams[i] = root.Split()
		simStreams[i] = root.Split()
	}
	width := cfg.BatchWidth
	if width <= 0 || width > cfg.Trials {
		width = cfg.Trials
	}

	res := Result{PerTrial: make([]float64, 0, cfg.Trials)}
	var chunksSoFar int64
	for lo := 0; lo < cfg.Trials; lo += width {
		hi := min(lo+width, cfg.Trials)
		kern, err := factory(hi-lo, algStreams[lo:hi])
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: ensemble factory: %w", err)
		}
		if kern == nil {
			return Result{}, errors.New("avgtime: ensemble factory returned a nil kernel")
		}
		if kern.Replicas() != hi-lo {
			return Result{}, fmt.Errorf("avgtime: ensemble factory returned %d replicas, want %d", kern.Replicas(), hi-lo)
		}
		// All replicas start from the same initial vector, so replica 0's
		// variance is every replica's varX(0).
		var0 := kern.ReplicaVariance(0)
		if var0 == 0 {
			for i := lo; i < hi; i++ {
				res.PerTrial = append(res.PerTrial, 0) // already averaged
			}
			continue
		}
		var opts []sim.BatchOption
		if rates != nil {
			opts = append(opts, sim.WithBatchRates(rates))
		}
		if cfg.Observer != nil {
			// Offset the per-engine event count by the trials already
			// finished so the observer sees one monotone meter across
			// batches; chunks likewise.
			baseEvents, baseChunks := res.Events, chunksSoFar
			opts = append(opts, sim.WithBatchObserver(func(st sim.BatchStats) {
				st.Events += baseEvents
				st.Chunks += baseChunks
				cfg.Observer(st)
			}))
		}
		eng, err := sim.NewBatchEngine(g, kern, simStreams[lo:hi], opts...)
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: %w", err)
		}
		tracked := eng.RunTracked(cfg.tracked(var0, kern))
		for _, tr := range tracked {
			if tr.Censored {
				res.Censored++
			}
			res.PerTrial = append(res.PerTrial, tr.LastExceed)
		}
		res.Events += eng.Events()
		chunksSoFar += eng.Chunks()
	}

	q, err := stats.Quantile(res.PerTrial, DefaultQuantile)
	if err != nil {
		return Result{}, err
	}
	res.Tav = q
	res.Mean, res.CI95 = stats.MeanCI95(res.PerTrial)
	return res, nil
}
