package gossip

import (
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// The per-event reference: each algorithm's update rule written out once
// more in its plain unfused form (State.Get/Set per endpoint), and a loop
// that delivers one tick at a time. The engine's loop (RunUntil over
// TickEdges) is pinned to it bit for bit in kernel_test.go, and the fused
// State kernels in kernel_test.go, ensemble_test.go and flat_test.go.

// averageRef is the vanilla exchange on {i, j} with Get/Set: both
// endpoints move to their arithmetic mean.
func averageRef(s *State, i, j int) {
	avg := (s.Get(i) + s.Get(j)) / 2
	s.Set(i, avg)
	s.Set(j, avg)
}

// convexRef is the class-C exchange on {i, j} with Get/Set:
// x_i ← α·x_i + (1−α)·x_j, x_j ← α·x_j + (1−α)·x_i(old).
func convexRef(s *State, i, j int, alpha float64) {
	xi, xj := s.Get(i), s.Get(j)
	s.Set(i, alpha*xi+(1-alpha)*xj)
	s.Set(j, alpha*xj+(1-alpha)*xi)
}

// tickOne applies one tick of edge e as a one-edge tracked chunk, the
// eager one-tick form.
func tickOne(a Algorithm, e graph.EdgeID) {
	a.TickChunkTracked([]graph.EdgeID{e}, math.Inf(1))
}

// HandleTick is vanilla's reference update for a tick of edge e.
func (v *Vanilla) HandleTick(e graph.EdgeID, _ float64) {
	averageRef(v.st, int(v.eu[e]), int(v.ev[e]))
}

// HandleTick is the class-C reference update for a tick of edge e.
func (c *Convex) HandleTick(e graph.EdgeID, _ float64) {
	convexRef(c.st, int(c.eu[e]), int(c.ev[e]), c.alpha)
}

// HandleTick is push-sum's reference update for a tick of edge e.
func (p *PushSum) HandleTick(e graph.EdgeID, _ float64) {
	from, to := int(p.eu[e]), int(p.ev[e])
	if p.r.Float64() < 0.5 {
		from, to = to, from
	}
	halfS, halfW := p.s[from]/2, p.w[from]/2
	p.s[from] -= halfS
	p.w[from] -= halfW
	p.s[to] += halfS
	p.w[to] += halfW
	p.est.Set(from, p.s[from]/p.w[from])
	p.est.Set(to, p.s[to]/p.w[to])
}

// handler is the reference per-event contract.
type handler interface {
	HandleTick(e graph.EdgeID, t float64)
}

// refClock replays sim.Engine's superposed global clock at rate 1 per edge,
// draw for draw: an Exp(1) gap scaled by 1/|E|, then a uniform edge.
type refClock struct {
	r      *rng.RNG
	inv    float64
	m      int
	now    float64
	events int64
}

func newRefClock(g *graph.Graph, seed uint64) *refClock {
	return &refClock{r: rng.New(seed), inv: 1 / float64(g.NumEdges()), m: g.NumEdges()}
}

// tick delivers the next event to h.
func (c *refClock) tick(h handler) {
	c.now += c.r.ExpUnit() * c.inv
	h.HandleTick(graph.EdgeID(c.r.Intn(c.m)), c.now)
	c.events++
}

// runUntil delivers events until simulated time reaches maxT, testing the
// clock before each event as the engine does.
func (c *refClock) runUntil(h handler, maxT float64) {
	for c.now < maxT {
		c.tick(h)
	}
}
