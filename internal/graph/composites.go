package graph

// Additional sparse-cut composites beyond the clique dumbbell: a torus
// dumbbell (the same bottleneck at constant degree) and a ring of cliques
// (many dense blocks, every adjacent pair joined by a sparse bridge). Both
// return a planted Partition across their sparsest cut, like the
// constructions in dumbbell.go.

import "fmt"

// TorusDumbbell returns the sparse-cut family that scales to millions of
// nodes: two 4-regular tori of n/2 and n-n/2 nodes joined by cutEdges
// edges between facing rims. It is the dumbbell's bottleneck shape with
// the cliques replaced by constant-degree blocks — a clique half of 5·10^5
// nodes would need ~10^11 edges, a torus half needs 2 per node — so the
// sharded runtime can materialise the worst case at 10^6 nodes.
//
// Torus 1 occupies nodes [0, n/2), torus 2 the rest; each half is laid out
// as its most-square rows x cols factorisation with both dims >= 3 (the
// torus wraparound needs 3), and the k-th cut edge joins node n/2-1-k to
// node n/2+k. The returned partition is the planted cut between the
// halves. It returns an error unless n >= 18, cutEdges is in
// [1, min(n/2, n-n/2)], and both halves admit a rows >= 3 factorisation —
// pick halves with small prime factors (powers of 10 work) rather than
// primes.
func TorusDumbbell(n, cutEdges int) (*Graph, *Partition, error) {
	if n < 18 {
		return nil, nil, fmt.Errorf("graph: torus dumbbell needs n >= 18 (two 3x3 tori), got %d", n)
	}
	half1, half2 := n/2, n-n/2
	if cutEdges < 1 || cutEdges > half1 {
		return nil, nil, fmt.Errorf("graph: torus dumbbell cutEdges %d outside [1, %d]", cutEdges, half1)
	}
	r1, c1, ok := nearSquareDims(half1)
	if !ok {
		return nil, nil, fmt.Errorf("graph: torus half of %d nodes has no rows x cols factorisation with rows >= 3; choose a composite half size", half1)
	}
	r2, c2, ok := nearSquareDims(half2)
	if !ok {
		return nil, nil, fmt.Errorf("graph: torus half of %d nodes has no rows x cols factorisation with rows >= 3; choose a composite half size", half2)
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("torusdumbbell(n=%d,cut=%d)", n, cutEdges))
	torus := func(base, rows, cols int) {
		id := func(r, c int) NodeID { return NodeID(base + r*cols + c) }
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				b.AddEdge(id(r, c), id(r, (c+1)%cols))
				b.AddEdge(id(r, c), id((r+1)%rows, c))
			}
		}
	}
	torus(0, r1, c1)
	torus(half1, r2, c2)
	for k := 0; k < cutEdges; k++ {
		b.AddEdge(NodeID(half1-1-k), NodeID(half1+k))
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	part, err := PartitionByPrefix(g, half1)
	if err != nil {
		return nil, nil, err
	}
	return g, part, nil
}

// nearSquareDims factors h as rows x cols with 3 <= rows <= cols and rows
// as large as possible (the most-square split keeps the torus diameter
// near 2*sqrt(h)).
func nearSquareDims(h int) (rows, cols int, ok bool) {
	best := 0
	for r := 3; r*r <= h; r++ {
		if h%r == 0 {
			best = r
		}
	}
	if best == 0 {
		return 0, 0, false
	}
	return best, h / best, true
}

// RingOfCliques returns `blocks` cliques of size m arranged in a cycle,
// adjacent cliques joined by `bridges` edges over distinct endpoint pairs.
// Clique i occupies nodes [i*m, (i+1)*m); the k-th bridge between cliques
// i and i+1 joins node i*m + (m-1-k) to node ((i+1) mod blocks)*m + k.
//
// The returned partition splits the ring into two contiguous arcs of
// blocks/2 and blocks-blocks/2 cliques, so its cut consists of the two
// bridge bundles where the arcs meet: |E12| = 2*bridges. It returns an
// error unless blocks >= 3, m >= 1, and bridges in [1, m].
func RingOfCliques(blocks, m, bridges int) (*Graph, *Partition, error) {
	if blocks < 3 {
		return nil, nil, fmt.Errorf("graph: ring of cliques needs blocks >= 3, got %d", blocks)
	}
	if m < 1 {
		return nil, nil, fmt.Errorf("graph: ring of cliques needs clique size >= 1, got %d", m)
	}
	if bridges < 1 || bridges > m {
		return nil, nil, fmt.Errorf("graph: ring of cliques bridges %d outside [1, %d]", bridges, m)
	}
	n := blocks * m
	b := NewBuilder(n).SetName(fmt.Sprintf("ringofcliques(blocks=%d,m=%d,bridges=%d)", blocks, m, bridges))
	for i := 0; i < blocks; i++ {
		base := i * m
		for u := 0; u < m; u++ {
			for v := u + 1; v < m; v++ {
				b.AddEdge(NodeID(base+u), NodeID(base+v))
			}
		}
		next := ((i + 1) % blocks) * m
		for k := 0; k < bridges; k++ {
			b.AddEdge(NodeID(base+m-1-k), NodeID(next+k))
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	part, err := PartitionByPrefix(g, (blocks/2)*m)
	if err != nil {
		return nil, nil, err
	}
	return g, part, nil
}
