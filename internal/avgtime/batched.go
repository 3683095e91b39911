package avgtime

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// EnsembleFactory builds a replica-batched kernel: R independent replicas
// of one algorithm over a shared graph, all starting from the same initial
// vector (e.g. gossip.NewVanillaEnsemble or core.NewEnsemble).
// algStreams has length R, one private stream per replica for
// algorithm-internal randomness (push-sum direction coins); factories for
// deterministic algorithms may ignore it.
type EnsembleFactory func(replicas int, algStreams []*rng.RNG) (sim.BatchKernel, error)

// EstimateBatched measures the averaging time of the ensemble produced by
// factory on g through the replica-batched bridged engine
// (sim.BatchEngine): all trials advance in interleaved lockstep over the
// shared flat graph, inter-event exponential gaps collapse into per-chunk
// Gamma bridge draws, and the per-event work drops to one uniform edge
// pick plus a division-free moment update. It samples the
// last-exceedance distribution of a per-event simulation; the package KS
// tests check it against a per-event estimator with its own clock.
//
// nil rates mean the paper's rate-1 clocks. BatchWidth bounds how many
// trials are resident per batch (memory only — every trial's randomness
// comes from its own pair of child streams, an algorithm stream then a
// simulation stream, split from Config.Seed in trial order, so the
// reported Result is byte-identical for any width).
//
// A kernel that reports a positive epoch duration (an ensemble of
// Algorithm A runs) sizes the quiet period from it. Every replica must
// start at the same variance varX(0), from which the levels are scaled.
func EstimateBatched(g *graph.Graph, rates []float64, factory EnsembleFactory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("avgtime: nil ensemble factory")
	}
	// Per-trial streams, split from the root in trial order, independent
	// of the batch grouping.
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
	var var0 float64
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
		// All trials start from the same initial vector, so trial 0's
		// variance is every trial's varX(0).
		if lo == 0 {
			var0 = kern.ReplicaVariance(0)
		}
		for rep := range hi - lo {
			if v := kern.ReplicaVariance(rep); math.Float64bits(v) != math.Float64bits(var0) {
				return Result{}, fmt.Errorf("avgtime: trial %d starts at variance %v, trial 0 at %v; all trials must start from one initial vector", lo+rep, v, var0)
			}
		}
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

	if err := res.summarise(); err != nil {
		return Result{}, err
	}
	return res, nil
}
