package graph

// Composite sparse-cut constructions: the dumbbell (the paper's headline
// example), general two-subgraph joins, and planted two-community random
// graphs. Each returns the graph together with the intended Partition, so
// experiments never have to rediscover the planted cut.

import (
	"fmt"

	"sparsecut/internal/rng"
)

// Dumbbell returns two cliques K_{n1} and K_{n2} joined by `cutEdges`
// edges, along with the clique/clique partition. Nodes 0..n1-1 form the
// first clique (matching the paper's labelling, with the designated cut
// edge connecting node n1-1 to node n1 when cutEdges >= 1).
//
// Cut edges are spread over distinct endpoint pairs: the k-th cut edge
// joins node n1-1-k (mod n1) to node n1+k (mod n2), so up to
// min(n1,n2) distinct pairs are available. It returns an error if
// n1 < 1, n2 < 1, or cutEdges outside [1, min(n1, n2)].
func Dumbbell(n1, n2, cutEdges int) (*Graph, *Partition, error) {
	if n1 < 1 || n2 < 1 {
		return nil, nil, fmt.Errorf("graph: dumbbell sides must be >= 1, got %d, %d", n1, n2)
	}
	maxCut := n1
	if n2 < maxCut {
		maxCut = n2
	}
	if cutEdges < 1 || cutEdges > maxCut {
		return nil, nil, fmt.Errorf("graph: dumbbell cutEdges %d outside [1, %d]", cutEdges, maxCut)
	}
	b := NewBuilder(n1 + n2).SetName(fmt.Sprintf("dumbbell(n1=%d,n2=%d,cut=%d)", n1, n2, cutEdges))
	for u := 0; u < n1; u++ {
		for v := u + 1; v < n1; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	for u := n1; u < n1+n2; u++ {
		for v := u + 1; v < n1+n2; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	for k := 0; k < cutEdges; k++ {
		u := NodeID((n1 - 1 - k%n1 + n1) % n1)
		v := NodeID(n1 + k%n2)
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	part, err := PartitionByPrefix(g, n1)
	if err != nil {
		return nil, nil, err
	}
	return g, part, nil
}

// SymmetricDumbbell returns Dumbbell(n/2, n-n/2, cutEdges) — the paper's
// G' example when cutEdges = 1. It returns an error if n < 2.
func SymmetricDumbbell(n, cutEdges int) (*Graph, *Partition, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("graph: symmetric dumbbell needs n >= 2, got %d", n)
	}
	return Dumbbell(n/2, n-n/2, cutEdges)
}

// Join glues two graphs into one, connecting them with the provided pairs
// of (node-in-g1, node-in-g2) cut edges. Node IDs of g2 are shifted by
// g1.NumNodes() in the result. The returned partition separates the two
// original graphs. It returns an error on out-of-range endpoints or an
// empty cut.
func Join(g1, g2 *Graph, cut [][2]NodeID) (*Graph, *Partition, error) {
	if len(cut) == 0 {
		return nil, nil, fmt.Errorf("graph: join requires at least one cut edge")
	}
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	b := NewBuilder(n1 + n2).SetName(fmt.Sprintf("join(%s + %s)", g1.Name(), g2.Name()))
	for _, e := range g1.Edges() {
		b.AddEdge(e.U, e.V)
	}
	for _, e := range g2.Edges() {
		b.AddEdge(e.U+NodeID(n1), e.V+NodeID(n1))
	}
	for _, c := range cut {
		u, v := c[0], c[1]
		if u < 0 || int(u) >= n1 {
			return nil, nil, fmt.Errorf("graph: join cut endpoint %d outside g1 [0,%d)", u, n1)
		}
		if v < 0 || int(v) >= n2 {
			return nil, nil, fmt.Errorf("graph: join cut endpoint %d outside g2 [0,%d)", v, n2)
		}
		b.AddEdge(u, v+NodeID(n1))
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	part, err := PartitionByPrefix(g, n1)
	if err != nil {
		return nil, nil, err
	}
	return g, part, nil
}

// PlantedPartition returns a two-community random graph: sides of size n1
// and n2, internal edges present with probability pIn, cross edges with
// probability pOut. The sample is retried until both sides are internally
// connected and the cut is non-empty; it returns an error after maxTries.
func PlantedPartition(r *rng.RNG, n1, n2 int, pIn, pOut float64, maxTries int) (*Graph, *Partition, error) {
	if n1 < 1 || n2 < 1 {
		return nil, nil, fmt.Errorf("graph: planted partition sides must be >= 1, got %d, %d", n1, n2)
	}
	if pIn < 0 || pIn > 1 || pOut < 0 || pOut > 1 {
		return nil, nil, fmt.Errorf("graph: planted partition probabilities (%v, %v) outside [0,1]", pIn, pOut)
	}
	n := n1 + n2
	for try := 0; try < maxTries; try++ {
		b := NewBuilder(n).SetName(fmt.Sprintf("planted(n1=%d,n2=%d,pin=%.3g,pout=%.3g)", n1, n2, pIn, pOut))
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				p := pOut
				if (u < n1) == (v < n1) {
					p = pIn
				}
				if r.Float64() < p {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			return nil, nil, err
		}
		part, err := PartitionByPrefix(g, n1)
		if err != nil {
			return nil, nil, err
		}
		if part.CutSize() >= 1 && sidesInternallyConnected(part) {
			return g, part, nil
		}
	}
	return nil, nil, fmt.Errorf("graph: no valid planted partition sample in %d tries", maxTries)
}
