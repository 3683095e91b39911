package scenario

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/core"
	"sparsecut/internal/cut"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
)

// Resolved is a Spec turned into concrete simulation objects. All
// randomness consumed during resolution (graph sampling, random initial
// vectors, rate draws) derives deterministically from Spec.Seed, so the
// same spec resolves to the same graph and initial condition everywhere.
type Resolved struct {
	// Spec is the input with every default filled in — the normalized form
	// that sweep reports embed.
	Spec Spec
	// Graph is the built graph; Partition its planted sparse-cut partition
	// (nil for families without one). Both are nil on the sharded path
	// (Stop.Shards > 0), where Implicit carries the graph instead.
	Graph     *graph.Graph
	Partition *graph.Partition
	// Implicit is the block representation, set instead of Graph when
	// Stop.Shards > 0 routes the run onto the sharded engine.
	Implicit *graph.Implicit
	// X0 is the initial vector.
	X0 []float64
	// Rates holds per-edge clock rates, nil for the uniform rate-1 model.
	Rates []float64

	trialSeed uint64
	algSeed   uint64

	// side caches Algorithm A's default per-side Tvan bounds for the
	// planted partition; see sideTvan.
	side struct {
		once     sync.Once
		tv1, tv2 float64
		err      error
	}
}

// Resolve validates the spec, applies defaults, builds the graph and the
// initial condition, and returns the bundle the engines consume.
func (s Spec) Resolve() (*Resolved, error) {
	s = s.withDefaults()
	fam, ok := Lookup(s.Graph.Family)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown graph family %q (known: %s)",
			s.Graph.Family, strings.Join(FamilyNames(), ", "))
	}
	s.Graph.Family = fam.Name
	if fam.Defaults != nil {
		fam.Defaults(&s.Graph)
	}
	switch s.Algo.Name {
	case "vanilla", "convex", "pushsum", "A":
	case "a", "algorithmA", "algorithma", "sparsecut":
		s.Algo.Name = "A"
	default:
		return nil, fmt.Errorf("scenario: unknown algorithm %q (known: vanilla, convex, pushsum, A)", s.Algo.Name)
	}
	if s.Algo.Alpha < 0 || s.Algo.Alpha > 1 {
		return nil, fmt.Errorf("scenario: convex alpha %v outside [0,1]", s.Algo.Alpha)
	}
	switch s.Algo.Weight {
	case "exact", "paper", "custom":
	default:
		return nil, fmt.Errorf("scenario: unknown weight rule %q (known: exact, paper, custom)", s.Algo.Weight)
	}

	// All resolution randomness flows from one root: one child stream for
	// the graph sample, one for the initial vector, one for the rates, and
	// a derived seed for the trial streams. The order is part of the
	// determinism contract (DESIGN.md §7).
	root := rng.New(s.Seed)
	graphRNG := root.Split()
	initRNG := root.Split()
	rateRNG := root.Split()
	trialSeed := root.Uint64()
	algSeed := root.Uint64()

	if s.Stop.Shards > 0 {
		// Sharded large-run path: the implicit representation replaces the
		// materialised graph, so only families with one, the
		// vanilla kernel (gossip.FlatState) and uniform rate-1 clocks
		// qualify. Stream derivation order above is unchanged — the same
		// seed resolves to the same init vector on either path.
		if fam.Implicit == nil {
			return nil, fmt.Errorf("scenario: family %s has no implicit representation (shards require one of: %s)",
				fam.Name, strings.Join(implicitFamilies(), ", "))
		}
		if s.Algo.Name != "vanilla" {
			return nil, fmt.Errorf("scenario: sharded runs support the vanilla algorithm only, not %q", s.Algo.Name)
		}
		if s.Rates != "uniform" {
			return nil, fmt.Errorf("scenario: sharded runs support uniform rates only, not %q", s.Rates)
		}
		ig, err := fam.Implicit(s.Graph)
		if err != nil {
			return nil, fmt.Errorf("scenario: building implicit %s: %w", fam.Name, err)
		}
		s.Graph.N = ig.NumNodes()
		r := &Resolved{Spec: s, Implicit: ig, trialSeed: trialSeed, algSeed: algSeed}
		if r.X0, err = buildInitImplicit(s.Init, ig, initRNG); err != nil {
			return nil, err
		}
		return r, nil
	}

	g, part, err := fam.Build(s.Graph, graphRNG)
	if err != nil {
		return nil, fmt.Errorf("scenario: building %s: %w", fam.Name, err)
	}
	s.Graph.N = g.NumNodes()

	r := &Resolved{Spec: s, Graph: g, Partition: part, trialSeed: trialSeed, algSeed: algSeed}
	if r.X0, err = buildInit(s.Init, g, part, initRNG); err != nil {
		return nil, err
	}
	if r.Rates, err = buildRates(s.Rates, g, rateRNG); err != nil {
		return nil, err
	}
	return r, nil
}

// buildInitImplicit is buildInit for implicit graphs: "worstcase" uses
// the planted prefix split, which every implicit family has.
func buildInitImplicit(kind string, ig *graph.Implicit, r *rng.RNG) ([]float64, error) {
	n := ig.NumNodes()
	switch kind {
	case "worstcase":
		return gossip.CutIndicatorPrefix(n, ig.SplitPoint()), nil
	case "spike":
		return gossip.Spike(n, 0)
	case "random":
		return gossip.UniformRandom(r, n), nil
	case "gaussian":
		return gossip.GaussianRandom(r, n), nil
	case "linear":
		return gossip.Linear(n), nil
	default:
		return nil, fmt.Errorf("scenario: unknown init %q (known: worstcase, spike, random, gaussian, linear)", kind)
	}
}

// buildInit constructs the initial vector. "worstcase" prefers the
// planted partition's cut indicator; without one it detects a cut by
// spectral bisection and falls back to a spike if detection fails.
func buildInit(kind string, g *graph.Graph, part *graph.Partition, r *rng.RNG) ([]float64, error) {
	switch kind {
	case "worstcase":
		if part == nil {
			detected, err := cut.SpectralBisection(g, spectral.Options{})
			if err == nil {
				return gossip.CutIndicator(detected), nil
			}
			return gossip.Spike(g.NumNodes(), 0)
		}
		return gossip.CutIndicator(part), nil
	case "spike":
		return gossip.Spike(g.NumNodes(), 0)
	case "random":
		return gossip.UniformRandom(r, g.NumNodes()), nil
	case "gaussian":
		return gossip.GaussianRandom(r, g.NumNodes()), nil
	case "linear":
		return gossip.Linear(g.NumNodes()), nil
	default:
		return nil, fmt.Errorf("scenario: unknown init %q (known: worstcase, spike, random, gaussian, linear)", kind)
	}
}

// buildRates constructs the per-edge clock rates for the named model.
func buildRates(model string, g *graph.Graph, r *rng.RNG) ([]float64, error) {
	switch model {
	case "uniform":
		return nil, nil
	case "nodeclock":
		return sim.NodeClockRates(g), nil
	case "random":
		rates := make([]float64, g.NumEdges())
		for i := range rates {
			rates[i] = 0.5 + 1.5*r.Float64()
		}
		return rates, nil
	default:
		return nil, fmt.Errorf("scenario: unknown rate model %q (known: uniform, nodeclock, random)", model)
	}
}

// NewAlgorithm builds a fresh algorithm instance for one trial. The RNG
// is consumed only by algorithms with internal randomness (push-sum).
func (r *Resolved) NewAlgorithm(rr *rng.RNG) (gossip.Algorithm, error) {
	a := r.Spec.Algo
	switch a.Name {
	case "vanilla":
		return gossip.NewVanilla(r.Graph, r.X0)
	case "convex":
		return gossip.NewConvex(r.Graph, r.X0, a.Alpha)
	case "pushsum":
		return gossip.NewPushSum(r.Graph, r.X0, rr)
	case "A":
		return r.newA()
	default:
		return nil, fmt.Errorf("scenario: unknown algorithm %q", a.Name)
	}
}

// newA builds one run of Algorithm A from the spec.
func (r *Resolved) newA() (*core.SparseCutAveraging, error) {
	a := r.Spec.Algo
	opts := []core.Option{}
	if r.Partition != nil {
		opts = append(opts, core.WithPartition(r.Partition))
	}
	switch a.Weight {
	case "paper":
		opts = append(opts, core.WithWeightRule(core.WeightPaper))
	case "custom":
		opts = append(opts, core.WithWeight(a.W))
	}
	if a.EpochC != 0 {
		opts = append(opts, core.WithEpochConstant(a.EpochC))
	}
	if a.EpochTicks != 0 {
		opts = append(opts, core.WithEpochTicks(a.EpochTicks))
	} else if tv1, tv2, ok := r.sideTvan(); ok {
		opts = append(opts, core.WithTvan(tv1, tv2))
	}
	if a.AllCutEdges {
		opts = append(opts, core.WithAllCutEdges())
	}
	return core.New(r.Graph, r.X0, opts...)
}

// SwapParams derives Algorithm A's live exchange rule as the numbers
// dist.NewSparseCutRule and check.SparseCut take: the planted partition's
// designated cut edge ec, K = AlgoSpec.EpochTicks, and the weight
// AlgoSpec.Weight names. Vanilla gets zeros; any other algorithm, or A
// without a planted partition, is an error.
func (r *Resolved) SwapParams() (ec graph.EdgeID, epochTicks int64, w float64, err error) {
	a := r.Spec.Algo
	switch {
	case a.Name == "vanilla":
		return 0, 0, 0, nil
	case a.Name != "A":
		return 0, 0, 0, fmt.Errorf("scenario: algorithm %q has no exchange rule (known: vanilla, A)", a.Name)
	case r.Partition == nil:
		return 0, 0, 0, fmt.Errorf("scenario: algorithm A's exchange rule needs a planted partition, and family %s has none", r.Spec.Graph.Family)
	}
	if ec, err = cut.DesignatedCutEdge(r.Partition); err != nil {
		return 0, 0, 0, err
	}
	switch a.Weight {
	case "exact":
		w = core.ExactWeight(r.Partition)
	case "paper":
		w = core.PaperWeight(r.Partition)
	default:
		w = a.W
	}
	return ec, a.EpochTicks, w, nil
}

// Describe writes the graph: and partition: lines that open the summaries
// of gossipsim and distrun, one format for both.
func (r *Resolved) Describe(w io.Writer) {
	fmt.Fprintf(w, "graph:      %s\n", r.Graph)
	if r.Partition != nil {
		fmt.Fprintf(w, "partition:  %s\n", r.Partition)
	} else {
		fmt.Fprintf(w, "partition:  (none planted)\n")
	}
}

// sideTvan returns the per-side Tvan bounds core.New would derive from
// the planted partition, computed once per Resolved: every trial of a
// cell would otherwise rebuild both side subgraphs and re-run power
// iteration for the same result. ok is false without a partition or when
// the estimate fails; core.New then derives the bounds itself, so a
// failure surfaces as its "core: estimating side Tvan" error.
func (r *Resolved) sideTvan() (tv1, tv2 float64, ok bool) {
	if r.Partition == nil {
		return 0, 0, false
	}
	r.side.once.Do(func() {
		r.side.tv1, r.side.tv2, r.side.err = core.SideTvanBounds(r.Partition, spectral.Options{})
	})
	return r.side.tv1, r.side.tv2, r.side.err == nil
}

// AlgorithmRNG returns a fresh stream for a single standalone algorithm
// instance (e.g. one CLI simulation run). It is derived from the
// scenario root but disjoint from the graph/init/rate streams and from
// the avgtime trial streams, so no randomness is reused across purposes.
func (r *Resolved) AlgorithmRNG() *rng.RNG {
	return rng.New(r.algSeed)
}

// NumNodes returns the resolved node count, whichever representation
// carries the graph.
func (r *Resolved) NumNodes() int {
	if r.Implicit != nil {
		return r.Implicit.NumNodes()
	}
	return r.Graph.NumNodes()
}

// Monotone reports whether the resolved algorithm's variance is
// non-increasing (class C), letting the estimator stop exactly at the
// threshold instead of waiting out the re-inflation margin.
func (r *Resolved) Monotone() bool {
	return r.Spec.Algo.Name == "vanilla" || r.Spec.Algo.Name == "convex"
}

// AvgtimeConfig derives the Definition-1 estimator configuration: the
// spec's trial budget and censoring horizon (default 60·n), with the
// trial streams seeded from the scenario root.
func (r *Resolved) AvgtimeConfig() avgtime.Config {
	cfg := avgtime.Config{
		Trials:  r.Spec.Stop.Trials,
		MaxTime: r.Spec.Stop.MaxTime,
		Seed:    r.trialSeed,
	}
	if cfg.MaxTime == 0 {
		cfg.MaxTime = 60 * float64(r.NumNodes())
	}
	if r.Monotone() {
		cfg.MarginFactor = 1 // convex updates never re-inflate the variance
	}
	return cfg
}

// kernel names the algorithm whose batch kernel Estimate runs. Convex at
// α = ½ runs vanilla's: the two updates agree bit for bit except near
// underflow, where halving rounds, and overflow, so building one kernel
// makes their estimates equal by construction.
func (r *Resolved) kernel() string {
	if a := r.Spec.Algo; a.Name == "convex" && a.Alpha == 0.5 {
		return "vanilla"
	}
	return r.Spec.Algo.Name
}

// EstimateKey returns the spec as Estimate sees it: resolved specs with
// equal keys have equal estimates. It is Spec with convex at α = ½ named
// vanilla, the kernel it runs, so sweep.Cache can share the two.
func (r *Resolved) EstimateKey() Spec {
	k := r.Spec
	k.Algo.Name = r.kernel()
	return k
}

// EnsembleFactory returns the replica-batched kernel factory for the
// resolved algorithm, and ok = false on the sharded path, which has no
// materialised graph.
func (r *Resolved) EnsembleFactory() (avgtime.EnsembleFactory, bool) {
	if r.Implicit != nil {
		return nil, false
	}
	switch r.kernel() {
	case "vanilla":
		return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
			return gossip.NewVanillaEnsemble(r.Graph, r.X0, replicas)
		}, true
	case "convex":
		alpha := r.Spec.Algo.Alpha
		return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
			return gossip.NewConvexEnsemble(r.Graph, r.X0, alpha, replicas)
		}, true
	case "pushsum":
		return func(_ int, algStreams []*rng.RNG) (sim.BatchKernel, error) {
			return gossip.NewPushSumEnsemble(r.Graph, r.X0, algStreams)
		}, true
	default: // Algorithm A
		return func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
			return core.NewEnsemble(replicas, func(int) (*core.SparseCutAveraging, error) { return r.newA() })
		}, true
	}
}

// Estimate runs the paper's Definition-1 Monte-Carlo averaging-time
// estimator for this scenario (censoring-aware, like internal/avgtime).
// Scenarios resolved onto the sharded path (Stop.Shards > 0) run the
// windowed PDES engine over the implicit graph; every other scenario
// routes through the bridged sim.BatchEngine, the sweep hot path. Either
// way the result is a deterministic function of the spec alone.
func (r *Resolved) Estimate() (avgtime.Result, error) {
	if r.Implicit != nil {
		return avgtime.EstimateSharded(r.Implicit, r.X0, r.AvgtimeConfig(), avgtime.ShardedOptions{
			Workers: r.Spec.Stop.Shards,
			Window:  r.Spec.Stop.Window,
		})
	}
	factory, _ := r.EnsembleFactory()
	return avgtime.EstimateBatched(r.Graph, r.Rates, factory, r.AvgtimeConfig())
}
