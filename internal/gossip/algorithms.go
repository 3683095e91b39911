package gossip

import (
	"fmt"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Algorithm is a distributed averaging process driven by edge clock ticks.
// Its update rule comes in two forms: the lazy TickEdges, which is
// sim.TickKernel's method (declared here because package sim may not be
// imported from gossip; any Algorithm is therefore a TickKernel), and the
// tracked TickChunkTracked, which an Ensemble drives. A one-edge tracked
// chunk is the eager one-tick form, for callers that read the variance
// after every event. The other methods are the observables the
// averaging-time estimator needs.
type Algorithm interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// TickEdges applies the algorithm's update for a batch of ticks, in
	// order, deferring the moments to the next read.
	TickEdges(edges []graph.EdgeID)
	// TickChunkTracked applies the ticks with eager per-event moments and
	// returns the index within edges of the last event whose post-tick
	// variance exceeded level (-1 if none did) and the post-chunk
	// variance.
	TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64)
	// Values returns a copy of the current value vector.
	Values() []float64
	// Mean returns the current average (invariant for sum-preserving
	// algorithms).
	Mean() float64
	// Variance returns the paper's varX of the current values.
	Variance() float64
}

// Vanilla is the paper's baseline: a tick of edge (i, j) replaces both
// endpoint values with their arithmetic mean. It is the α = 1/2 member of
// class C and the algorithm whose averaging time defines Tvan.
type Vanilla struct {
	st     *State
	eu, ev []int32 // flat endpoint arrays of the graph
}

// NewVanilla builds vanilla gossip on g with initial values x0. It returns
// an error when len(x0) differs from the node count.
func NewVanilla(g *graph.Graph, x0 []float64) (*Vanilla, error) {
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	return &Vanilla{st: NewState(x0), eu: g.EdgeU(), ev: g.EdgeV()}, nil
}

// Name implements Algorithm.
func (v *Vanilla) Name() string { return "vanilla" }

// TickEdges implements sim.TickKernel: the fused batch loop, bit-identical
// in the values to TickChunkTracked (moments resync on the next read).
func (v *Vanilla) TickEdges(edges []graph.EdgeID) {
	v.st.AverageEdgesLazy(edges, v.eu, v.ev)
}

// TickChunkTracked implements Algorithm (State.AverageEdgesTracked).
func (v *Vanilla) TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64) {
	return v.st.AverageEdgesTracked(edges, v.eu, v.ev, level)
}

// Values implements Algorithm.
func (v *Vanilla) Values() []float64 { return v.st.Values() }

// Mean implements Algorithm.
func (v *Vanilla) Mean() float64 { return v.st.Mean() }

// Variance implements Algorithm.
func (v *Vanilla) Variance() float64 { return v.st.Variance() }

// Convex is the general member of the paper's class C (Definition 2): a
// tick of (i, j) applies
//
//	x_i ← α·x_i + (1−α)·x_j
//	x_j ← α·x_j + (1−α)·x_i(old)
//
// with a fixed mixing parameter α ∈ [0, 1]. α = 1/2 recovers Vanilla;
// α closer to 1 is "lazier". All members preserve the sum and never
// increase the variance — the properties Theorem 1's lower bound exploits.
type Convex struct {
	st     *State
	alpha  float64
	eu, ev []int32
}

// NewConvex builds α-gossip on g. It returns an error for α outside [0, 1]
// or a length mismatch.
func NewConvex(g *graph.Graph, x0 []float64, alpha float64) (*Convex, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("gossip: alpha %v outside [0,1]", alpha)
	}
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	return &Convex{st: NewState(x0), alpha: alpha, eu: g.EdgeU(), ev: g.EdgeV()}, nil
}

// Name implements Algorithm.
func (c *Convex) Name() string { return fmt.Sprintf("convex(alpha=%.3g)", c.alpha) }

// Alpha returns the mixing parameter.
func (c *Convex) Alpha() float64 { return c.alpha }

// TickEdges implements sim.TickKernel: the fused batch loop, bit-identical
// in the values to TickChunkTracked (moments resync on the next read).
func (c *Convex) TickEdges(edges []graph.EdgeID) {
	c.st.ConvexEdgesLazy(edges, c.eu, c.ev, c.alpha)
}

// TickChunkTracked implements Algorithm (State.ConvexEdgesTracked).
func (c *Convex) TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64) {
	return c.st.ConvexEdgesTracked(edges, c.eu, c.ev, c.alpha, level)
}

// Values implements Algorithm.
func (c *Convex) Values() []float64 { return c.st.Values() }

// Mean implements Algorithm.
func (c *Convex) Mean() float64 { return c.st.Mean() }

// Variance implements Algorithm.
func (c *Convex) Variance() float64 { return c.st.Variance() }

// PushSum is the mass-splitting baseline (Kempe–Dobra–Gehrke style) adapted
// to the edge-clock model: at a tick of (i, j) a uniformly random endpoint
// sends half of its mass pair (s, w) to the other. Each node's estimate is
// s/w. Push-sum is also convex in the estimates, so it obeys Theorem 1's
// lower bound; it is included to show the bound is about convexity, not
// about any particular update rule.
type PushSum struct {
	s      []float64
	w      []float64
	est    *State // estimates s/w, kept in sync for O(1) variance
	r      *rng.RNG
	eu, ev []int32
}

// NewPushSum builds push-sum on g with initial values x0 and its own
// direction-choice stream r (must be non-nil).
func NewPushSum(g *graph.Graph, x0 []float64, r *rng.RNG) (*PushSum, error) {
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	if r == nil {
		return nil, fmt.Errorf("gossip: push-sum requires an RNG")
	}
	p := &PushSum{
		s:  append([]float64(nil), x0...),
		w:  make([]float64, len(x0)),
		r:  r,
		eu: g.EdgeU(),
		ev: g.EdgeV(),
	}
	for i := range p.w {
		p.w[i] = 1
	}
	p.est = NewState(x0)
	return p, nil
}

// Name implements Algorithm.
func (p *PushSum) Name() string { return "push-sum" }

// push applies the mass exchange of one tick of edge e: a fair coin picks
// the sender, which hands half of its (s, w) mass to the other. It returns
// the endpoints (sender first) and their new estimates s/w.
func (p *PushSum) push(e graph.EdgeID) (from, to int, estFrom, estTo float64) {
	from, to = int(p.eu[e]), int(p.ev[e])
	if p.r.Float64() < 0.5 {
		from, to = to, from
	}
	halfS, halfW := p.s[from]/2, p.w[from]/2
	p.s[from] -= halfS
	p.w[from] -= halfW
	p.s[to] += halfS
	p.w[to] += halfW
	return from, to, p.s[from] / p.w[from], p.s[to] / p.w[to]
}

// TickEdges implements sim.TickKernel (estimate moments deferred to the
// next moment read).
func (p *PushSum) TickEdges(edges []graph.EdgeID) {
	for _, e := range edges {
		p.est.Set2Lazy(p.push(e))
	}
}

// TickChunkTracked implements Algorithm for push-sum's estimates: the mass
// arithmetic runs between the events, so the chunk loop is here rather
// than in State.
func (p *PushSum) TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64) {
	st := p.est
	st.syncIfDirty()
	fn := float64(st.N())
	scaledLevel := level * fn * fn
	lastIdx = -1
	for k, e := range edges {
		st.set2(p.push(e))
		if st.scaledVariance() > scaledLevel {
			lastIdx = k
		}
	}
	return lastIdx, st.endChunk(2 * len(edges))
}

// Values implements Algorithm (the per-node estimates s/w).
func (p *PushSum) Values() []float64 { return p.est.Values() }

// Mean implements Algorithm. Note push-sum preserves total mass Σs and
// total weight Σw rather than the mean of the estimates; Mean reports the
// mean estimate.
func (p *PushSum) Mean() float64 { return p.est.Mean() }

// Variance implements Algorithm (variance of the estimates).
func (p *PushSum) Variance() float64 { return p.est.Variance() }

// TotalMass returns Σs, an exact conserved quantity of push-sum.
func (p *PushSum) TotalMass() float64 {
	t := 0.0
	for _, v := range p.s {
		t += v
	}
	return t
}

// TotalWeight returns Σw, an exact conserved quantity of push-sum (equal to
// the node count).
func (p *PushSum) TotalWeight() float64 {
	t := 0.0
	for _, v := range p.w {
		t += v
	}
	return t
}
