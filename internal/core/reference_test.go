package core

import (
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// The per-event reference: Algorithm A's update rule written out once more
// in its plain unfused form (State.Get/Set per endpoint), and a loop that
// delivers one tick at a time. The engine's fused loops are pinned to it
// bit for bit in core_test.go.

// HandleTick is Algorithm A's reference update for a tick of edge e.
func (a *SparseCutAveraging) HandleTick(e graph.EdgeID) {
	switch {
	case e == a.ec || (a.ec < 0 && a.isCut[e]):
		a.tickCut(e)
	case a.isCut[e]:
		// Non-designated cut edges make no update (paper, Section 1.0.1).
	default:
		edge := a.g.Edge(e)
		i, j := int(edge.U), int(edge.V)
		avg := (a.st.Get(i) + a.st.Get(j)) / 2
		a.st.Set(i, avg)
		a.st.Set(j, avg)
	}
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

// tick delivers the next event to a.
func (c *refClock) tick(a *SparseCutAveraging) {
	c.now += c.r.ExpUnit() * c.inv
	a.HandleTick(graph.EdgeID(c.r.Intn(c.m)))
	c.events++
}

// runUntil delivers events until simulated time reaches maxT, testing the
// clock before each event as the engine does.
func (c *refClock) runUntil(a *SparseCutAveraging, maxT float64) {
	for c.now < maxT {
		c.tick(a)
	}
}
