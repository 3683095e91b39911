// Package core implements the paper's primary contribution: Algorithm A,
// the non-convex gossip-averaging algorithm for graphs with one sparse cut.
//
// The algorithm (Section 1.0.1 of the paper) partitions the graph into two
// internally well-connected sides V1, V2 joined by cut edges E12 and fixes
// one designated cut edge ec. At a tick of:
//
//   - an internal edge (both endpoints on one side): vanilla averaging —
//     both endpoints take the arithmetic mean;
//   - a cut edge other than ec: no update;
//   - ec: nothing, except at every K-th tick of ec, where
//     K = ⌈C·(Tvan(G1)+Tvan(G2))·ln n⌉, a *non-convex* swap with
//     coefficient w ≫ 1 fires: x_a ← x_a + w(x_b − x_a),
//     x_b ← x_b − w(x_b − x_a).
//
// Between swaps each side mixes internally, so its values concentrate
// around the side mean; the swap then transfers exactly the inter-side
// imbalance across the cut in O(1) time instead of the Ω(n1/|E12|) time any
// convex algorithm needs (Theorem 1). See weight.go for the coefficient
// discussion (the library defaults to the exactly-annihilating w* rather
// than the paper's literal n1).
//
// Key types: SparseCutAveraging (gossip.Algorithm: the lazy TickEdges and
// the tracked TickChunkTracked, which take no event times), NewEnsemble (R
// runs as one gossip.Ensemble replica batch) and the Option set
// (WithPartition, WithTvan, WithAllCutEdges, ...). The designated edge ec
// is always the lowest-ID cut edge. A swap listener (WithSwapListener,
// used by E6) sees each swap's index and the exact variance around it, on
// the lazy path only.
// The deliberate deviations from the paper's literal text are DESIGN.md
// §3; the claim mapping is §4.
package core

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/cut"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/spectral"
)

// DefaultEpochConstant is the paper's constant C ("sufficiently large
// absolute constant") used when computing the swap period
// K = ⌈C·(Tvan1+Tvan2)·ln n⌉ from Tvan estimates.
//
// The default Tvan estimate is the spectral bound 6/λ2, which already
// embeds Definition 1's e² threshold and probability margin, so C = 1
// yields C·6·ln n ≈ 6·ln n e-folds of per-epoch side mixing — a per-epoch
// within-side variance contraction of n⁻⁶ ≪ the n⁻³ the paper's Lemma 1
// machinery needs — while keeping epochs short enough that the algorithm
// wins at practical sizes. Experiment E9 sweeps C.
const DefaultEpochConstant = 1.0

// SwapEvent describes one firing of the non-convex cut update, as reported
// to the listener installed with WithSwapListener.
type SwapEvent struct {
	// Index is the 1-based count of swaps so far.
	Index int64
	// VarBefore and VarAfter are the paper's varX immediately before and
	// after the swap (the values at T_k^- and T_k^+ in Section 3).
	VarBefore, VarAfter float64
}

// SparseCutAveraging is Algorithm A. It implements gossip.Algorithm (and
// therefore sim.TickKernel). Construct with New; the zero value is not
// usable.
type SparseCutAveraging struct {
	g    *graph.Graph
	part *graph.Partition
	st   *gossip.State

	ec       graph.EdgeID
	isCut    []bool  // per-edge: crosses the partition
	eu, ev   []int32 // flat endpoint arrays of g, for the fused kernel
	weight   float64
	rule     WeightRule
	epochK   int64 // swap every epochK-th tick of ec
	ecTicks  int64
	swaps    int64
	listener func(SwapEvent)
}

var _ gossip.Algorithm = (*SparseCutAveraging)(nil)

// Option configures New.
type Option func(*config)

type config struct {
	part         *graph.Partition
	rule         WeightRule
	customWeight float64
	epochK       int64
	epochC       float64
	tvanSet      bool
	tvan1, tvan2 float64
	listener     func(SwapEvent)
	allCutEdges  bool
}

// WithPartition supplies the sparse-cut partition (e.g. the planted one
// from graph.Dumbbell). Without it, New auto-detects a cut by spectral
// bisection.
func WithPartition(p *graph.Partition) Option {
	return func(c *config) { c.part = p }
}

// WithWeightRule selects the swap coefficient strategy (default WeightExact).
func WithWeightRule(rule WeightRule) Option {
	return func(c *config) { c.rule = rule }
}

// WithWeight sets an explicit swap coefficient and implies WeightCustom.
func WithWeight(w float64) Option {
	return func(c *config) { c.rule = WeightCustom; c.customWeight = w }
}

// WithEpochTicks fixes the swap period K directly, bypassing the
// C·(Tvan1+Tvan2)·ln n formula. K must be >= 1.
func WithEpochTicks(k int64) Option {
	return func(c *config) { c.epochK = k }
}

// WithEpochConstant sets the paper's constant C (default
// DefaultEpochConstant). Ignored when WithEpochTicks is used.
func WithEpochConstant(cc float64) Option {
	return func(c *config) { c.epochC = cc }
}

// WithTvan supplies the per-side vanilla averaging times used in the epoch
// formula, e.g. empirical measurements. By default they are the analytic
// spectral bounds 6/λ2 of the two induced subgraphs.
func WithTvan(tvan1, tvan2 float64) Option {
	return func(c *config) { c.tvanSet = true; c.tvan1 = tvan1; c.tvan2 = tvan2 }
}

// WithSwapListener installs a callback invoked at every swap with the
// variance just before and after — the observable driving the
// stochastic-dominance experiment (E6).
func WithSwapListener(fn func(SwapEvent)) Option {
	return func(c *config) { c.listener = fn }
}

// WithAllCutEdges enables the multi-edge extension: every cut edge
// participates in a shared tick counter and the swap fires on whichever cut
// edge's tick reaches the period. This is not in the paper (which uses a
// single fixed ec and ignores other cut edges). The derived period is
// scaled by |E12| so the epoch *duration* still satisfies the side-mixing
// requirement; the benefit is that the minimum epoch is 1/|E12| time units
// instead of 1 (the single edge's tick gap), which only matters once
// C·(Tvan1+Tvan2)·ln n < 1. Experiment E14 quantifies this — including the
// failure mode of the naive unscaled variant (WithEpochTicks bypasses the
// scaling, so E14 can reproduce it).
func WithAllCutEdges() Option {
	return func(c *config) { c.allCutEdges = true }
}

// New builds Algorithm A on g with initial values x0.
//
// The designated edge ec is the lowest-ID cut edge
// (cut.DesignatedCutEdge). Validation errors include: length mismatch, a
// partition for a different graph or with no cut edges, non-positive
// custom weights, or K < 1. When no partition is supplied the graph must be
// connected so spectral bisection can find the cut.
func New(g *graph.Graph, x0 []float64, opts ...Option) (*SparseCutAveraging, error) {
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("core: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	cfg := config{rule: WeightExact, epochC: DefaultEpochConstant}
	for _, opt := range opts {
		opt(&cfg)
	}

	part := cfg.part
	if part == nil {
		detected, _, err := cut.Detect(g, spectral.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: auto-detecting sparse cut: %w", err)
		}
		part = detected
	} else if part.Graph() != g {
		return nil, errors.New("core: partition belongs to a different graph")
	}
	if part.CutSize() == 0 {
		return nil, errors.New("core: partition has no cut edges")
	}

	ec, err := cut.DesignatedCutEdge(part)
	if err != nil {
		return nil, err
	}

	w, err := weightFor(cfg.rule, cfg.customWeight, part)
	if err != nil {
		return nil, err
	}

	a := &SparseCutAveraging{
		g:        g,
		part:     part,
		st:       gossip.NewState(x0),
		ec:       ec,
		eu:       g.EdgeU(),
		ev:       g.EdgeV(),
		weight:   w,
		rule:     cfg.rule,
		listener: cfg.listener,
	}
	a.isCut = make([]bool, g.NumEdges())
	for _, id := range part.CutEdges() {
		a.isCut[id] = true
	}

	if cfg.epochK != 0 {
		if cfg.epochK < 1 {
			return nil, fmt.Errorf("core: epoch ticks %d must be >= 1", cfg.epochK)
		}
		a.epochK = cfg.epochK
	} else {
		tvan1, tvan2 := cfg.tvan1, cfg.tvan2
		if !cfg.tvanSet {
			tvan1, tvan2, err = SideTvanBounds(part, spectral.Options{})
			if err != nil {
				return nil, fmt.Errorf("core: estimating side Tvan: %w", err)
			}
		}
		if tvan1 < 0 || tvan2 < 0 || math.IsNaN(tvan1) || math.IsNaN(tvan2) || math.IsInf(tvan1, 0) || math.IsInf(tvan2, 0) {
			return nil, fmt.Errorf("core: invalid Tvan estimates (%v, %v)", tvan1, tvan2)
		}
		if cfg.epochC <= 0 {
			return nil, fmt.Errorf("core: epoch constant %v must be positive", cfg.epochC)
		}
		target := cfg.epochC * (tvan1 + tvan2) * math.Log(float64(g.NumNodes()))
		if cfg.allCutEdges {
			// In all-cut-edges mode the counter ticks |E12| times faster,
			// so K must scale with the cut size to keep the epoch
			// *duration* — the side-mixing requirement — unchanged.
			target *= float64(part.CutSize())
		}
		k := math.Ceil(target)
		if k < 1 {
			k = 1
		}
		a.epochK = int64(k)
	}

	if cfg.allCutEdges {
		// Multi-edge extension: treat every cut edge as swap-capable.
		a.ec = -1
	}
	return a, nil
}

// SideTvanBounds computes the analytic vanilla averaging-time bounds 6/λ2
// for the two induced side subgraphs. A single-node side averages
// instantly, so its bound is 0. It is a thin re-export of
// spectral.SideTvanBounds, kept here because it is part of Algorithm A's
// construction contract (the default Tvan estimator behind the epoch
// formula).
func SideTvanBounds(p *graph.Partition, opts spectral.Options) (tvan1, tvan2 float64, err error) {
	return spectral.SideTvanBounds(p, opts)
}

// Name implements gossip.Algorithm.
func (a *SparseCutAveraging) Name() string {
	return fmt.Sprintf("algorithm-A(w=%s, K=%d)", a.rule, a.epochK)
}

// cutTick advances the swap counter for a tick of cut edge e. At every
// epochK-th tick of ec (of any cut edge in all-cut-edges mode) it returns
// the swap: the endpoints u on Side1 and v, with their new values
// x_u + w(x_v − x_u) and x_v − w(x_v − x_u). ok is false for every other
// tick; cutTick changes no value itself.
func (a *SparseCutAveraging) cutTick(e graph.EdgeID) (u, v int, xu, xv float64, ok bool) {
	if e != a.ec && a.ec >= 0 {
		return 0, 0, 0, 0, false
	}
	a.ecTicks++
	if a.ecTicks%a.epochK != 0 {
		return 0, 0, 0, 0, false
	}
	// Orient so that u is the Side1 endpoint, matching the paper's
	// x_{n1}/x_{n1+1} labelling (the update itself is orientation-neutral).
	edge := a.g.Edge(e)
	u, v = int(edge.U), int(edge.V)
	if a.part.SideOf(edge.U) != graph.Side1 {
		u, v = v, u
	}
	xu, xv = a.st.Get(u), a.st.Get(v)
	d := a.weight * (xv - xu)
	a.swaps++
	return u, v, xu + d, xv - d, true
}

// TickEdges implements sim.TickKernel: the fused batch loop, bit-identical
// in the values to TickChunkTracked. Runs of internal edges — the
// overwhelming majority on a sparse-cut graph — are flushed to the lazy
// two-point average in sub-batches; a swap is stored lazily too, and the
// moments resync on the next read.
//
// A swap listener's VarBefore and VarAfter are moment reads just before
// and after the lazy swap. The state is always dirty at a swap (the lazy
// flush before it marks it so, even when empty), so both reads are exact
// resyncs of the values: E6-style per-epoch statistics read those fields
// at the float noise floor, where an incrementally kept moment can read 0
// (clamped) where the exact variance is not.
func (a *SparseCutAveraging) TickEdges(edges []graph.EdgeID) {
	eu, ev, st, isCut := a.eu, a.ev, a.st, a.isCut
	start := 0
	for k, e := range edges {
		if !isCut[e] {
			continue
		}
		st.AverageEdgesLazy(edges[start:k], eu, ev)
		start = k + 1
		u, v, xu, xv, ok := a.cutTick(e)
		if !ok {
			continue
		}
		if a.listener == nil {
			st.Set2Lazy(u, v, xu, xv)
			continue
		}
		varBefore := st.Variance()
		st.Set2Lazy(u, v, xu, xv)
		a.listener(SwapEvent{Index: a.swaps, VarBefore: varBefore, VarAfter: st.Variance()})
	}
	st.AverageEdgesLazy(edges[start:], eu, ev)
}

// TickChunkTracked implements gossip.Algorithm: the ticks of a chunk with
// eager per-event moments. Runs of internal edges go to
// State.AverageEdgesTracked; at a cut edge the swap, where cutTick fires
// one, is applied with Set, and the variance is compared with level. A
// one-edge chunk is the eager one-tick form: one update, one moment read.
// Longer chunks give the values of one-edge chunks bit for bit, and the
// same last exceedance index but for a one-ulp tie at the threshold or a
// moment resync that one-edge chunks make mid-chunk. The swap listener is
// not called here.
func (a *SparseCutAveraging) TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64) {
	lastIdx, start := -1, 0
	for k, e := range edges {
		if !a.isCut[e] {
			continue
		}
		if idx, _ := a.st.AverageEdgesTracked(edges[start:k], a.eu, a.ev, level); idx >= 0 {
			lastIdx = start + idx
		}
		start = k + 1
		if u, v, xu, xv, ok := a.cutTick(e); ok {
			a.st.Set(u, xu)
			a.st.Set(v, xv)
		}
		if a.st.Variance() > level {
			lastIdx = k
		}
	}
	idx, endVar := a.st.AverageEdgesTracked(edges[start:], a.eu, a.ev, level)
	if idx >= 0 {
		lastIdx = start + idx
	}
	return lastIdx, endVar
}

// Values implements gossip.Algorithm.
func (a *SparseCutAveraging) Values() []float64 { return a.st.Values() }

// Mean implements gossip.Algorithm.
func (a *SparseCutAveraging) Mean() float64 { return a.st.Mean() }

// Variance implements gossip.Algorithm.
func (a *SparseCutAveraging) Variance() float64 { return a.st.Variance() }

// Partition returns the sparse-cut partition in use.
func (a *SparseCutAveraging) Partition() *graph.Partition { return a.part }

// CutEdge returns the designated edge ec, or -1 in all-cut-edges mode.
func (a *SparseCutAveraging) CutEdge() graph.EdgeID { return a.ec }

// Weight returns the swap coefficient in use.
func (a *SparseCutAveraging) Weight() float64 { return a.weight }

// EpochTicks returns the swap period K in ticks of ec.
func (a *SparseCutAveraging) EpochTicks() int64 { return a.epochK }

// Swaps returns the number of non-convex swaps performed so far.
func (a *SparseCutAveraging) Swaps() int64 { return a.swaps }

// EpochDuration returns the expected simulated time between swaps: K ticks
// of a rate-1 edge clock take K time units in expectation (or K/|E12| in
// all-cut-edges mode). The averaging-time estimator uses this to size its
// quiet period.
func (a *SparseCutAveraging) EpochDuration() float64 {
	if a.ec < 0 {
		return float64(a.epochK) / float64(a.part.CutSize())
	}
	return float64(a.epochK)
}

// SideMeans returns the current means µ1, µ2 of the two sides — the
// quantities whose annihilation the swap is designed for. It reads the
// state in place without copying the value vector.
func (a *SparseCutAveraging) SideMeans() (mu1, mu2 float64) {
	var s1, s2 float64
	for u := 0; u < a.st.N(); u++ {
		x := a.st.Get(u)
		if a.part.SideOf(graph.NodeID(u)) == graph.Side1 {
			s1 += x
		} else {
			s2 += x
		}
	}
	return s1 / float64(a.part.Size1()), s2 / float64(a.part.Size2())
}

// NewEnsemble builds an ensemble of replicas runs of A, replica rep from
// run(rep), as one replica batch for sim.BatchEngine. The gossip.Ensemble
// reports the runs' epoch duration, from which the averaging-time
// estimator sizes its quiet period. A run with a swap listener is
// rejected: the ensemble drives only the tracked chunk, which never calls
// the listener.
func NewEnsemble(replicas int, run func(rep int) (*SparseCutAveraging, error)) (*gossip.Ensemble, error) {
	return gossip.NewEnsemble(replicas, func(rep int) (gossip.Algorithm, error) {
		a, err := run(rep)
		if err != nil {
			return nil, err
		}
		if a.listener != nil {
			return nil, errors.New("core: an ensemble run cannot have a swap listener")
		}
		return a, nil
	})
}
