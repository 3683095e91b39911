package gossip

import (
	"fmt"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Ensemble is R independent runs of one averaging algorithm over a shared
// graph, driven as a replica batch by sim.BatchEngine (it implements
// sim.BatchKernel). Each replica is an ordinary single run — a Vanilla,
// Convex, PushSum or Algorithm A (core.SparseCutAveraging) with its own
// State — so a replica's trajectory is that run's, bit for bit. The
// graph's flat endpoint arrays are shared by all replicas and stay hot in
// cache while the engine round-robins replica chunks over them.
type Ensemble struct {
	runs  []Algorithm
	epoch float64 // the runs' epoch duration; 0 for runs without epochs
}

// NewEnsemble builds an ensemble of replicas runs, replica rep from
// run(rep). The runs are meant to share one configuration; when they have
// an epoch (Algorithm A), the ensemble reports the last run's
// EpochDuration.
func NewEnsemble(replicas int, run func(rep int) (Algorithm, error)) (*Ensemble, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("gossip: ensemble needs at least one replica, got %d", replicas)
	}
	e := &Ensemble{runs: make([]Algorithm, replicas)}
	for rep := range e.runs {
		r, err := run(rep)
		if err != nil {
			return nil, err
		}
		if h, ok := r.(interface{ EpochDuration() float64 }); ok {
			e.epoch = h.EpochDuration()
		}
		e.runs[rep] = r
	}
	return e, nil
}

// NewVanillaEnsemble builds R runs of vanilla gossip on g, all starting
// from x0.
func NewVanillaEnsemble(g *graph.Graph, x0 []float64, replicas int) (*Ensemble, error) {
	return NewEnsemble(replicas, func(int) (Algorithm, error) { return NewVanilla(g, x0) })
}

// NewConvexEnsemble builds R runs of α-gossip on g.
func NewConvexEnsemble(g *graph.Graph, x0 []float64, alpha float64, replicas int) (*Ensemble, error) {
	return NewEnsemble(replicas, func(int) (Algorithm, error) { return NewConvex(g, x0, alpha) })
}

// NewPushSumEnsemble builds one push-sum run per stream, all starting from
// x0; replica rep draws its direction coins from streams[rep]. Every stream
// must be non-nil and distinct streams should be independent (e.g.
// rng.Split children).
func NewPushSumEnsemble(g *graph.Graph, x0 []float64, streams []*rng.RNG) (*Ensemble, error) {
	if len(streams) < 1 {
		return nil, fmt.Errorf("gossip: push-sum ensemble needs at least one stream")
	}
	return NewEnsemble(len(streams), func(rep int) (Algorithm, error) {
		if streams[rep] == nil {
			return nil, fmt.Errorf("gossip: push-sum ensemble stream %d is nil", rep)
		}
		return NewPushSum(g, x0, streams[rep])
	})
}

// Replicas implements sim.BatchKernel.
func (e *Ensemble) Replicas() int { return len(e.runs) }

// TickChunkTracked implements sim.BatchKernel.
func (e *Ensemble) TickChunkTracked(rep int, edges []graph.EdgeID, exceedLevel float64) (lastIdx int, endVar float64) {
	return e.runs[rep].TickChunkTracked(edges, exceedLevel)
}

// EpochDuration returns the runs' expected simulated time between epochs
// (Algorithm A's swaps), or 0 when the runs have none. The averaging-time
// estimator sizes its quiet period from it.
func (e *Ensemble) EpochDuration() float64 { return e.epoch }

// ReplicaVariance implements sim.BatchKernel.
func (e *Ensemble) ReplicaVariance(rep int) float64 { return e.runs[rep].Variance() }

// Values returns a copy of replica rep's value vector (original frame;
// push-sum's estimates s/w).
func (e *Ensemble) Values(rep int) []float64 { return e.runs[rep].Values() }
