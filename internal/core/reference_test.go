package core

import (
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// The per-event reference: Algorithm A's update rule written out once more
// in its plain unfused form (State.Get/Set per endpoint), and a loop that
// delivers one tick at a time. The engine's fused loops are pinned to it
// bit for bit in core_test.go.

// HandleTick is Algorithm A's reference update for a tick of edge e. A
// swap listener sees the variances exactVariance gives from the values.
func (a *SparseCutAveraging) HandleTick(e graph.EdgeID) {
	switch {
	case e == a.ec || (a.ec < 0 && a.isCut[e]):
		u, v, xu, xv, ok := a.cutTick(e)
		if !ok {
			return
		}
		if a.listener == nil {
			a.st.Set(u, xu)
			a.st.Set(v, xv)
			return
		}
		varBefore := exactVariance(a.Values())
		a.st.Set(u, xu)
		a.st.Set(v, xv)
		a.listener(SwapEvent{Index: a.swaps, VarBefore: varBefore, VarAfter: exactVariance(a.Values())})
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

// exactVariance is the variance a State's exact resync reads: Σy and Σy²
// in node order, then Σy²/n − (Σy/n)², clamped at 0. The State keeps y
// centred by the initial mean, so x is y only when that mean is 0.
func exactVariance(x []float64) float64 {
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += v * v
	}
	n := float64(len(x))
	m := sum / n
	v := sumSq/n - m*m
	if v < 0 {
		return 0
	}
	return v
}

// tickOne applies one tick of edge e as a one-edge tracked chunk, the
// eager one-tick form.
func tickOne(a *SparseCutAveraging, e graph.EdgeID) {
	a.TickChunkTracked([]graph.EdgeID{e}, math.Inf(1))
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
