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
// nil rates mean the paper's rate-1 clocks. All trials run as one
// batch; each trial's randomness comes from its own pair of child
// streams, an algorithm stream then a simulation stream, split from
// Config.Seed in trial order.
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
	root := rng.New(cfg.Seed)
	algStreams := make([]*rng.RNG, cfg.Trials)
	simStreams := make([]*rng.RNG, cfg.Trials)
	for i := 0; i < cfg.Trials; i++ {
		algStreams[i] = root.Split()
		simStreams[i] = root.Split()
	}
	kern, err := factory(cfg.Trials, algStreams)
	if err != nil {
		return Result{}, fmt.Errorf("avgtime: ensemble factory: %w", err)
	}
	if kern == nil {
		return Result{}, errors.New("avgtime: ensemble factory returned a nil kernel")
	}
	if kern.Replicas() != cfg.Trials {
		return Result{}, fmt.Errorf("avgtime: ensemble factory returned %d replicas, want %d", kern.Replicas(), cfg.Trials)
	}
	// All trials start from the same initial vector, so trial 0's
	// variance is every trial's varX(0).
	var0 := kern.ReplicaVariance(0)
	for rep := range cfg.Trials {
		if v := kern.ReplicaVariance(rep); math.Float64bits(v) != math.Float64bits(var0) {
			return Result{}, fmt.Errorf("avgtime: trial %d starts at variance %v, trial 0 at %v; all trials must start from one initial vector", rep, v, var0)
		}
	}
	res := Result{PerTrial: make([]float64, cfg.Trials)} // all zero: already averaged
	if var0 != 0 {
		var opts []sim.BatchOption
		if rates != nil {
			opts = append(opts, sim.WithBatchRates(rates))
		}
		if cfg.Observer != nil {
			opts = append(opts, sim.WithBatchObserver(cfg.Observer))
		}
		eng, err := sim.NewBatchEngine(g, kern, simStreams, opts...)
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: %w", err)
		}
		for i, tr := range eng.RunTracked(cfg.tracked(var0, kern)) {
			if tr.Censored {
				res.Censored++
			}
			res.PerTrial[i] = tr.LastExceed
		}
		res.Events = eng.Events()
	}

	if err := res.summarise(); err != nil {
		return Result{}, err
	}
	return res, nil
}
