package graph

// Implicit graphs: the clique-composite sparse-cut families (dumbbell and
// ring of cliques) need no stored edge list. Each is a run of disjoint
// contiguous clique blocks plus a handful of explicit cross-block edges,
// so an implicit graph costs O(1) memory per block plus its planted cut
// edges, which is what lets a single 10^6-node dumbbell replica — ~2.5·10^11
// edges, hopelessly beyond any materialised adjacency — run in RAM.
//
// What the sharded PDES engine (internal/sim.ShardEngine) reads is the
// cut-aware Tiling: one tile per clique block, sampled by its Fill, and
// the cross-block edges as the explicit Boundary list, in the order the
// materialised generator inserts them. The package tests check that the
// tiles' cliques plus Boundary are exactly the edge set Builder.Build
// produces for the same generator.

import (
	"fmt"
	"math"
	"sort"

	"sparsecut/internal/rng"
)

// Implicit is a clique-composite graph held as its blocks and cross
// edges instead of an edge list. Node ids are dense in [0, NumNodes);
// the edge count is int64 because the clique families overflow int32
// well below the million-node scale this representation exists for.
type Implicit struct {
	name     string
	n        int
	split    int
	blocks   [][2]int32 // ascending, covering [0, n)
	boundary []Edge     // the cross-block edges, normalised, in generator order
	edges    int64
}

// newImplicit validates and assembles an implicit graph from its clique
// blocks (ascending, covering [0, n)) and its cross-block edges in the
// generator's insertion order: every cross edge must join two blocks and
// appear once.
func newImplicit(name string, n, split int, blocks [][2]int32, cross []Edge) (*Implicit, error) {
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nodes", ErrTooLarge, n)
	}
	blockOf := func(u NodeID) int {
		return sort.Search(len(blocks), func(i int) bool { return blocks[i][1] > int32(u) })
	}
	seen := make(map[Edge]struct{}, len(cross))
	for _, e := range cross {
		if blockOf(e.U) == blockOf(e.V) {
			return nil, fmt.Errorf("graph: implicit %s: cross edge %v inside one block", name, e)
		}
		if _, dup := seen[e]; dup {
			return nil, fmt.Errorf("graph: implicit %s: duplicate cross edge %v", name, e)
		}
		seen[e] = struct{}{}
	}
	edges := int64(len(cross))
	for _, b := range blocks {
		edges += cliqueEdges(int(b[1] - b[0]))
	}
	return &Implicit{name: name, n: n, split: split, blocks: blocks, boundary: cross, edges: edges}, nil
}

// Name returns the generator-style description, e.g.
// "dumbbell(n1=500000,n2=500000,cut=1)".
func (g *Implicit) Name() string { return g.name }

// NumNodes returns |V|.
func (g *Implicit) NumNodes() int { return g.n }

// NumEdges returns |E| (int64: clique families overflow int32).
func (g *Implicit) NumEdges() int64 { return g.edges }

// SplitPoint returns the planted sparse cut's prefix size: nodes
// [0, SplitPoint) form side 1.
func (g *Implicit) SplitPoint() int { return g.split }

// Tiling returns the canonical cut-aware tiling — a deterministic function
// of the graph alone, independent of worker counts: every clique block is
// one tile and every cross edge is on the boundary.
func (g *Implicit) Tiling() *Tiling {
	t := &Tiling{N: g.n, Boundary: g.boundary}
	for _, b := range g.blocks {
		lo, hi := b[0], b[1]
		t.Tiles = append(t.Tiles, Tile{
			Lo:    lo,
			Hi:    hi,
			Edges: cliqueEdges(int(hi - lo)),
		})
	}
	return t
}

// Tile is one contiguous node range of a Tiling: a clique block, whose
// internal edges are never enumerated. Edges counts them and Fill samples
// them.
type Tile struct {
	// Lo, Hi bound the tile's nodes: [Lo, Hi).
	Lo, Hi int32
	// Edges counts the edges with both endpoints inside the tile.
	Edges int64
}

// Fill writes len(us) endpoint pairs of independent uniform internal
// edges into us and vs, consuming only r: the pairs and the stream
// position of r.Intn(size), r.Intn(size-1) and a shift per pair
// (rng.FillPairs). It panics when Edges == 0 or len(vs) < len(us).
func (t *Tile) Fill(r *rng.RNG, us, vs []int32) {
	rng.FillPairs(r, us, vs, t.Lo, int(t.Hi-t.Lo))
}

// Tiling is a cut-aware decomposition of an implicit graph: contiguous
// tiles aligned with the dense blocks, plus the explicit list of boundary
// edges crossing tiles — small by construction, because tiles never split
// a clique. Every edge is either internal to exactly one tile or on the
// boundary: Σ Tiles[i].Edges + len(Boundary) == NumEdges.
type Tiling struct {
	// N is the node count; tiles cover [0, N) contiguously.
	N int
	// Tiles are the shards, ascending by node range.
	Tiles []Tile
	// Boundary lists every cross-tile edge explicitly (normalised U < V).
	Boundary []Edge
}

// Bounds returns the tile node ranges as [lo, hi) pairs — the shape the
// sharded run state (gossip.FlatState) sums its moments over.
func (t *Tiling) Bounds() [][2]int32 {
	out := make([][2]int32, len(t.Tiles))
	for i, tl := range t.Tiles {
		out[i] = [2]int32{tl.Lo, tl.Hi}
	}
	return out
}

// --- clique arithmetic ---------------------------------------------------

// cliqueEdges returns C(s, 2) without intermediate overflow for any s
// that fits an int32.
func cliqueEdges(s int) int64 {
	s64 := int64(s)
	return s64 * (s64 - 1) / 2
}

// --- family constructors ------------------------------------------------

// ImplicitDumbbell is Dumbbell without materialisation: identical node
// labelling, cut-edge order and validation. cutEdges must lie in
// [1, min(n1, n2)], the range of distinct endpoint pairs — the same
// domain Dumbbell accepts.
func ImplicitDumbbell(n1, n2, cutEdges int) (*Implicit, error) {
	if n1 < 1 || n2 < 1 {
		return nil, fmt.Errorf("graph: dumbbell sides must be >= 1, got %d, %d", n1, n2)
	}
	maxCut := min(n1, n2)
	if cutEdges < 1 || cutEdges > maxCut {
		return nil, fmt.Errorf("graph: dumbbell cutEdges %d outside [1, %d]", cutEdges, maxCut)
	}
	cut := make([]Edge, cutEdges)
	for k := 0; k < cutEdges; k++ {
		cut[k] = NewEdge(NodeID(n1-1-k), NodeID(n1+k))
	}
	return newImplicit(
		fmt.Sprintf("dumbbell(n1=%d,n2=%d,cut=%d)", n1, n2, cutEdges),
		n1+n2, n1,
		[][2]int32{{0, int32(n1)}, {int32(n1), int32(n1 + n2)}},
		cut)
}

// ImplicitRingOfCliques is RingOfCliques without materialisation:
// identical node labelling, bridge order (block by block, each block's
// outgoing bridges) and validation.
func ImplicitRingOfCliques(blocks, m, bridges int) (*Implicit, error) {
	if blocks < 3 {
		return nil, fmt.Errorf("graph: ring of cliques needs blocks >= 3, got %d", blocks)
	}
	if m < 1 {
		return nil, fmt.Errorf("graph: ring of cliques needs clique size >= 1, got %d", m)
	}
	if bridges < 1 || bridges > m {
		return nil, fmt.Errorf("graph: ring of cliques bridges %d outside [1, %d]", bridges, m)
	}
	bb := make([][2]int32, blocks)
	cross := make([]Edge, 0, blocks*bridges)
	for i := 0; i < blocks; i++ {
		base := i * m
		bb[i] = [2]int32{int32(base), int32(base + m)}
		next := ((i + 1) % blocks) * m
		for k := 0; k < bridges; k++ {
			cross = append(cross, NewEdge(NodeID(base+m-1-k), NodeID(next+k)))
		}
	}
	return newImplicit(
		fmt.Sprintf("ringofcliques(blocks=%d,m=%d,bridges=%d)", blocks, m, bridges),
		blocks*m, (blocks/2)*m, bb, cross)
}
