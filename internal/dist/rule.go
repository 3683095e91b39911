package dist

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"sparsecut/internal/graph"
)

// Rule is the local update a committed exchange applies — the distributed
// counterpart of a gossip.Algorithm's update rule at one edge tick (its
// TickChunkTracked on a one-edge chunk). The responder of an exchange over
// edge e calls Delta once with both endpoint values, applies the exact
// negation to itself, and the initiator applies the returned delta.
// Because the two applied deltas are exact negations of one another, a
// committed exchange perturbs the value sum only by the two float
// roundings of x±d (~1 ulp each; no systematic drift), whatever the
// network drops or delays in between — and an abort perturbs nothing.
//
// Rules are shared by all shard loops of a runtime; implementations must
// be safe for concurrent use (SparseCutRule uses atomics for its tick
// counter).
type Rule interface {
	// Name identifies the rule in logs and tables.
	Name() string
	// Delta returns the signed amount the exchange over edge e adds to the
	// initiating endpoint's value, given the initiator's value xInit and
	// the responder's value xResp. The responder applies -delta.
	Delta(e graph.EdgeID, initiator graph.NodeID, xInit, xResp float64) float64
}

// VanillaRule is plain pairwise averaging: a committed exchange moves both
// endpoints to their mean, exactly as a tick of the simulator's vanilla
// algorithm does.
type VanillaRule struct{}

var _ Rule = VanillaRule{}

// NewVanillaRule returns the pairwise-averaging rule.
func NewVanillaRule() VanillaRule { return VanillaRule{} }

// Name implements Rule.
func (VanillaRule) Name() string { return "vanilla-averaging" }

// Delta implements Rule: half the value gap flows to the initiator.
func (VanillaRule) Delta(_ graph.EdgeID, _ graph.NodeID, xInit, xResp float64) float64 {
	return (xResp - xInit) / 2
}

// SparseCutRule is Algorithm A (internal/core) expressed as a local
// exchange rule:
//
//   - an internal edge (both endpoints on one side) averages its endpoints;
//   - a cut edge other than the designated ec commits with no value change;
//   - ec counts its exchanges and, at every epochTicks-th one, fires the
//     paper's non-convex swap x_a ← x_a + w(x_b − x_a),
//     x_b ← x_b − w(x_b − x_a).
//
// The tick counter is owned by the rule and advanced atomically by
// whichever endpoint of ec responds to the exchange, so the epoch schedule
// is consistent even though the two endpoints alternate as responder. The
// counter advances when a responder computes the update (proposal time):
// exchanges whose LOCK never arrived do not tick, and the rare proposal
// that is later refused has still consumed a tick — the natural reading of
// the paper's clock in a lossy network, where a tick may fire and its
// update come to nothing.
type SparseCutRule struct {
	part   *graph.Partition
	ec     graph.EdgeID
	epochK int64
	weight float64
	isCut  []bool
	ticks  atomic.Int64
	swaps  atomic.Int64
}

var _ Rule = (*SparseCutRule)(nil)

// NewSparseCutRule builds Algorithm A's exchange rule for a known
// partition, designated cut edge, swap period epochTicks (the paper's K)
// and swap coefficient weight (see internal/core/weight.go for the choice
// of coefficient).
func NewSparseCutRule(part *graph.Partition, cutEdge graph.EdgeID, epochTicks int64, weight float64) (*SparseCutRule, error) {
	if part == nil {
		return nil, errors.New("dist: SparseCutRule requires a partition")
	}
	g := part.Graph()
	if part.CutSize() == 0 {
		return nil, errors.New("dist: partition has no cut edges")
	}
	if cutEdge < 0 || int(cutEdge) >= g.NumEdges() {
		return nil, fmt.Errorf("dist: designated edge %d out of range", cutEdge)
	}
	if !part.IsCutEdge(cutEdge) {
		return nil, fmt.Errorf("dist: designated edge %v does not cross the cut", g.Edge(cutEdge))
	}
	if epochTicks < 1 {
		return nil, fmt.Errorf("dist: epoch ticks %d must be >= 1", epochTicks)
	}
	if !(weight > 0) || math.IsInf(weight, 0) {
		return nil, fmt.Errorf("dist: swap weight %v must be positive and finite", weight)
	}
	r := &SparseCutRule{part: part, ec: cutEdge, epochK: epochTicks, weight: weight}
	r.isCut = make([]bool, g.NumEdges())
	for _, id := range part.CutEdges() {
		r.isCut[id] = true
	}
	return r, nil
}

// Name implements Rule.
func (r *SparseCutRule) Name() string {
	return fmt.Sprintf("sparse-cut(w=%.4g, K=%d)", r.weight, r.epochK)
}

// Delta implements Rule.
func (r *SparseCutRule) Delta(e graph.EdgeID, _ graph.NodeID, xInit, xResp float64) float64 {
	switch {
	case !r.isCut[e]:
		return (xResp - xInit) / 2
	case e != r.ec:
		// Non-designated cut edges make no update (paper, Section 1.0.1).
		return 0
	default:
		if r.ticks.Add(1)%r.epochK != 0 {
			return 0
		}
		r.swaps.Add(1)
		// The swap is antisymmetric, so it needs no side orientation.
		return r.weight * (xResp - xInit)
	}
}

// Clone returns a copy of the rule with its tick and swap counters as they
// stand now, so the model checker can fork and backtrack a rule's state.
func (r *SparseCutRule) Clone() *SparseCutRule {
	cp := &SparseCutRule{part: r.part, ec: r.ec, epochK: r.epochK, weight: r.weight, isCut: r.isCut}
	cp.ticks.Store(r.ticks.Load())
	cp.swaps.Store(r.swaps.Load())
	return cp
}

// Swaps returns the number of non-convex swaps committed so far.
func (r *SparseCutRule) Swaps() int64 { return r.swaps.Load() }

// Ticks returns the number of exchanges of the designated edge that have
// consumed an epoch tick so far.
func (r *SparseCutRule) Ticks() int64 { return r.ticks.Load() }

// EpochTicks returns the swap period K in committed ticks of ec.
func (r *SparseCutRule) EpochTicks() int64 { return r.epochK }

// Weight returns the swap coefficient.
func (r *SparseCutRule) Weight() float64 { return r.weight }
