package gossip

import (
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// The per-event reference: each algorithm's update rule written out once
// more in its plain unfused form (State.Get/Set per endpoint), and a loop
// that delivers one tick at a time. The engine's loop (RunUntil over
// TickEdges) is pinned to it bit for bit in kernel_test.go.

// HandleTick is vanilla's reference update for a tick of edge e.
func (v *Vanilla) HandleTick(e graph.EdgeID, _ float64) {
	i, j := int(v.eu[e]), int(v.ev[e])
	avg := (v.st.Get(i) + v.st.Get(j)) / 2
	v.st.Set(i, avg)
	v.st.Set(j, avg)
}

// HandleTick is the class-C reference update for a tick of edge e.
func (c *Convex) HandleTick(e graph.EdgeID, _ float64) {
	i, j := int(c.eu[e]), int(c.ev[e])
	xi, xj := c.st.Get(i), c.st.Get(j)
	c.st.Set(i, c.alpha*xi+(1-c.alpha)*xj)
	c.st.Set(j, c.alpha*xj+(1-c.alpha)*xi)
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
