package sim

import (
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

func TestNodeClockRatesStar(t *testing.T) {
	// Star K_{1,4}: hub degree 4, leaves degree 1.
	g := graph.Star(5)
	rates := NodeClockRates(g)
	for i, r := range rates {
		want := 1.0/4 + 1.0 // hub contributes 1/4, leaf 1/1
		if math.Abs(r-want) > 1e-15 {
			t.Errorf("edge %d rate %v, want %v", i, r, want)
		}
	}
}

func TestNodeClockRatesRegularGraph(t *testing.T) {
	// On a d-regular graph every edge has rate 2/d.
	g := graph.Cycle(8)
	for i, r := range NodeClockRates(g) {
		if math.Abs(r-1) > 1e-15 { // 1/2 + 1/2
			t.Errorf("edge %d rate %v, want 1", i, r)
		}
	}
}

// Each node ticks at rate 1 and always selects exactly one incident edge,
// so the node-clock rates sum to the number of non-isolated nodes.
func TestNodeClockRatesSumToN(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Complete(7), graph.Path(9), graph.Star(6), graph.Grid(3, 4),
	} {
		got := 0.0
		for _, r := range NodeClockRates(g) {
			got += r
		}
		if math.Abs(got-float64(g.NumNodes())) > 1e-9 {
			t.Errorf("%s: total rate %v, want %d", g, got, g.NumNodes())
		}
	}
}

func TestNodeClockRatesPanicsOnIsolatedNode(t *testing.T) {
	// An isolated node never appears on an edge, so rates are fine; the
	// panic path needs a degree-0 endpoint, which cannot occur on a valid
	// graph — instead verify the edgeless graph yields an empty rate set.
	g := graph.NewBuilder(3).MustBuild()
	if len(NodeClockRates(g)) != 0 {
		t.Error("edgeless graph should have no rates")
	}
}

// The reduction must match a directly simulated node-clock process: per-
// edge tick counts over a horizon agree within Monte-Carlo noise.
func TestNodeClockReductionEquivalence(t *testing.T) {
	g := graph.Star(6) // asymmetric degrees make the test discriminating
	const horizon = 3000.0

	// Reduction: edge-clock engine with NodeClockRates.
	counter := newCounter(g)
	eng, err := NewEngine(g, counter, WithRates(NodeClockRates(g)), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(horizon)
	viaRates := counter.perEdge

	// Direct simulation: n node clocks, uniform neighbour choice.
	direct := make([]int64, g.NumEdges())
	r := rng.New(4)
	n := g.NumNodes()
	tNow := 0.0
	for {
		tNow += r.ExpFloat64(float64(n)) // superposed node clocks
		if tNow >= horizon {
			break
		}
		u := graph.NodeID(r.Intn(n))
		nb := g.Neighbors(u)
		he := nb[r.Intn(len(nb))]
		direct[he.Edge]++
	}

	for e := 0; e < g.NumEdges(); e++ {
		a, b := float64(viaRates[e]), float64(direct[e])
		// Each count is ~Poisson(1.25*3000); allow 6 sigma combined.
		sigma := math.Sqrt(a + b)
		if math.Abs(a-b) > 6*sigma {
			t.Errorf("edge %d: reduction %v vs direct %v", e, a, b)
		}
	}
}
