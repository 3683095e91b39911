package sim

import (
	"fmt"

	"sparsecut/internal/graph"
)

// Node-clock model support (the paper's footnote 1).
//
// The classical gossip model of Boyd et al. puts a rate-1 Poisson clock on
// every *node*; when node i ticks it contacts a uniformly random neighbour
// j and the edge (i, j) fires. By superposition of Poisson processes this
// is *exactly* the edge-clock model with per-edge rate
//
//	r(i,j) = 1/deg(i) + 1/deg(j),
//
// since edge (i, j) fires when i ticks and picks j (rate 1 · 1/deg(i)) or
// j ticks and picks i (rate 1 · 1/deg(j)). The paper's footnote observes
// the reverse reduction ("allocating edges to nodes and equipping nodes
// with multiple i.i.d poisson clocks"); NodeClockRates implements the
// forward one, so any TickKernel runs unchanged under the node-clock model:
//
//	rates := sim.NodeClockRates(g)
//	eng, _ := sim.NewEngine(g, alg, sim.WithRates(rates))
//
// The statistical equivalence of this reduction to a directly simulated
// node-clock process is exercised by the package tests.

// NodeClockRates returns the per-edge rates that realise the uniform
// natural-random-walk node-clock model on g. It panics if any node is
// isolated (an isolated node has no neighbour to contact; the model is
// undefined there).
func NodeClockRates(g *graph.Graph) []float64 {
	rates := make([]float64, g.NumEdges())
	for id, e := range g.Edges() {
		du, dv := g.Degree(e.U), g.Degree(e.V)
		if du == 0 || dv == 0 {
			panic(fmt.Sprintf("sim: node-clock model undefined for isolated node on edge %v", e))
		}
		rates[id] = 1/float64(du) + 1/float64(dv)
	}
	return rates
}
