package graph

// Implicit graphs: the structured sparse-cut families (dumbbell, ring of
// cliques, hierarchical dumbbell, lattices) need no stored edge list —
// degrees, neighbourhoods and the edge <-> id bijection are all index
// arithmetic. An implicit graph therefore costs O(1) memory per node
// (plus the handful of explicit cross-block edges), which is what lets a
// single 10^6-node dumbbell replica — ~2.5·10^11 edges, hopelessly beyond
// any materialised adjacency — run in RAM.
//
// The representation is contract-compatible with Builder.Build: edge ids
// follow the generator's insertion order, EdgeAt returns normalised
// endpoints (u < v), and Neighbor enumerates peers in ascending order,
// exactly matching the materialised adjacency. The package tests
// assert element-identical enumeration against the materialised
// constructors for every family, across sizes and cut widths.
//
// Implicit graphs also carry a cut-aware Tiling — the decomposition the
// sharded PDES engine (internal/sim.ShardEngine) advances in parallel:
// tiles are contiguous node ranges aligned with the dense blocks (never
// splitting a clique), so the explicit boundary edge list stays as small
// as the planted cuts themselves.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sparsecut/internal/rng"
)

// Implicit is a graph defined by index arithmetic instead of a stored
// edge list. Node ids are dense in [0, NumNodes) and edge ids dense in
// [0, NumEdges); edge ids are int64 because the clique-heavy families
// overflow int32 well below the million-node scale this representation
// exists for.
//
// The enumeration contract matches the materialised Builder output for
// the same generator: identical edge-id insertion order, normalised
// EdgeAt endpoints (u < v), and Neighbor in ascending peer order.
type Implicit interface {
	// Name returns the generator-style description, e.g.
	// "dumbbell(n1=500000,n2=500000,cut=1)".
	Name() string
	// NumNodes returns |V|.
	NumNodes() int
	// NumEdges returns |E| (int64: clique families overflow int32).
	NumEdges() int64
	// Degree returns the number of neighbours of node u.
	Degree(u int) int
	// Neighbor returns u's k-th neighbour in ascending peer order,
	// together with the undirected edge id connecting them. It panics if
	// k is outside [0, Degree(u)).
	Neighbor(u, k int) (peer int, edge int64)
	// EdgeAt returns the endpoints of edge id, normalised so u < v.
	EdgeAt(id int64) (u, v int)
	// SplitPoint returns the planted sparse cut's prefix size: nodes
	// [0, SplitPoint) form side 1 (0 when no cut is planted).
	SplitPoint() int
	// Tiling returns the canonical cut-aware tiling — a deterministic
	// function of the graph alone, independent of worker counts.
	Tiling() *Tiling
}

// SampleEdge draws one uniformly random edge of g: edge ids are dense, so
// a uniform id inverted through EdgeAt is a uniform edge — no alias table,
// no materialisation. This is the implicit-aware uniform edge sampler;
// the sharded engine uses the per-tile Fill samplers instead, which avoid
// the id inversion entirely.
func SampleEdge(g Implicit, r *rng.RNG) (u, v int) {
	return g.EdgeAt(int64(r.Intn(int(g.NumEdges()))))
}

// Tile is one contiguous node range of a Tiling plus its internal edge
// population. Internal edges are never enumerated: Edges counts them and
// Fill samples them.
type Tile struct {
	// Lo, Hi bound the tile's nodes: [Lo, Hi).
	Lo, Hi int32
	// Edges counts the edges with both endpoints inside the tile.
	Edges int64
	// Fill writes len(us) == len(vs) endpoint pairs of independent
	// uniform internal edges, consuming only r. It must not be called
	// when Edges == 0.
	Fill func(r *rng.RNG, us, vs []int32)
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
// sharded run state (gossip.FlatState) keys its per-tile moments on.
func (t *Tiling) Bounds() [][2]int32 {
	out := make([][2]int32, len(t.Tiles))
	for i, tl := range t.Tiles {
		out[i] = [2]int32{tl.Lo, tl.Hi}
	}
	return out
}

// InternalEdges sums the per-tile internal edge counts.
func (t *Tiling) InternalEdges() int64 {
	var sum int64
	for i := range t.Tiles {
		sum += t.Tiles[i].Edges
	}
	return sum
}

// --- clique index arithmetic -------------------------------------------

// cliqueEdges returns C(s, 2) without intermediate overflow for any s
// that fits an int32.
func cliqueEdges(s int) int64 {
	s64 := int64(s)
	return s64 * (s64 - 1) / 2
}

// cliqueRowOff returns the number of clique edges (u', v') with u' < u —
// the offset of row u in the row-major triangular enumeration the
// generators use (for u in u+1..s-1: edge (u, v)).
func cliqueRowOff(s, u int64) int64 { return u * (2*s - u - 1) / 2 }

// cliqueEdgeIndex returns the triangular index of edge (u, v) in a clique
// of size s, 0 <= u < v < s.
func cliqueEdgeIndex(s, u, v int) int64 {
	return cliqueRowOff(int64(s), int64(u)) + int64(v-u-1)
}

// cliqueEdgeAt inverts cliqueEdgeIndex: given t in [0, C(s,2)), it
// returns the edge (u, v) with u < v. The float solve lands within one
// row of the answer; the fix-up loops run at most a couple of steps.
func cliqueEdgeAt(s int, t int64) (u, v int) {
	sf := float64(s) - 0.5
	uf := sf - math.Sqrt(sf*sf-2*float64(t))
	uu := int64(uf)
	if uu < 0 {
		uu = 0
	}
	if m := int64(s) - 2; uu > m {
		uu = m
	}
	for uu > 0 && cliqueRowOff(int64(s), uu) > t {
		uu--
	}
	for cliqueRowOff(int64(s), uu+1) <= t {
		uu++
	}
	u = int(uu)
	v = u + 1 + int(t-cliqueRowOff(int64(s), uu))
	return u, v
}

// cliqueFill samples uniform unordered pairs inside [base, base+size): two
// bounded uniforms and a shift, no triangular inversion on the hot path.
// The draws are r.Intn(size) then r.Intn(size-1) with the Lemire fast
// path inlined (Intn is over the inlining budget) and the shared
// rejection finisher on the rare branch, so the stream is consumed word
// for word as the two Intn calls would.
func cliqueFill(base int32, size int) func(r *rng.RNG, us, vs []int32) {
	bi, bj := uint64(size), uint64(size-1)
	return func(r *rng.RNG, us, vs []int32) {
		vs = vs[:len(us)]
		for k := range us {
			i, lo := bits.Mul64(r.Uint64(), bi)
			if lo < bi {
				i = r.IntnSlow(i, lo, bi)
			}
			j, lo := bits.Mul64(r.Uint64(), bj)
			if lo < bj {
				j = r.IntnSlow(j, lo, bj)
			}
			if j >= i {
				j++
			}
			us[k] = base + int32(i)
			vs[k] = base + int32(j)
		}
	}
}

// --- generic block graph ------------------------------------------------

// segment is one run of consecutive edge ids: either a clique block's
// triangular enumeration or a short explicit list of cross-block edges.
type segment struct {
	off   int64 // first edge id of the segment
	count int64
	lo    int32  // clique segments: block base node
	size  int    // clique segments: block size; 0 marks an explicit segment
	edges []Edge // explicit segments: the edges, normalised, in id order
}

// blockImplicit is the shared implicit engine for the clique-composite
// families: disjoint contiguous clique blocks plus a small set of
// explicit cross-block edges, with an arbitrary interleaving of clique
// and explicit segments in the edge-id order. Dumbbell, ring-of-cliques
// and the hierarchical dumbbell are all instances.
type blockImplicit struct {
	name   string
	n      int
	split  int
	blocks [][2]int32 // ascending, covering [0, n)
	segs   []segment
	total  int64

	// blockSeg[b] is the edge-id offset of block b's clique segment.
	blockSeg []int64

	// Cross half-edges sorted by (node, peer): the per-node "extras"
	// beyond the clique neighbourhood. 2·|cross| entries — tiny, because
	// cross edges are the planted cuts.
	extraNode []int32
	extraPeer []int32
	extraEdge []int64

	boundary []Edge // the cross edges in id order, for the tiling
}

// newBlockImplicit wires the shared machinery: blocks in node order, segs
// in edge-id order (clique segments referencing blocks by [lo,size),
// explicit segments carrying their edges). It validates that explicit
// edges cross blocks and are distinct.
func newBlockImplicit(name string, n, split int, blocks [][2]int32, segs []segment) (*blockImplicit, error) {
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d nodes", ErrTooLarge, n)
	}
	g := &blockImplicit{name: name, n: n, split: split, blocks: blocks}
	g.blockSeg = make([]int64, len(blocks))
	seen := make(map[Edge]struct{})
	var off int64
	for _, s := range segs {
		s.off = off
		if s.size > 0 {
			s.count = cliqueEdges(s.size)
			b := g.blockOf(s.lo)
			g.blockSeg[b] = off
		} else {
			s.count = int64(len(s.edges))
			for i, e := range s.edges {
				id := off + int64(i)
				if g.blockOf(int32(e.U)) == g.blockOf(int32(e.V)) {
					return nil, fmt.Errorf("graph: implicit %s: cross edge %v inside one block", name, e)
				}
				if _, dup := seen[e]; dup {
					return nil, fmt.Errorf("graph: implicit %s: duplicate cross edge %v", name, e)
				}
				seen[e] = struct{}{}
				g.extraNode = append(g.extraNode, int32(e.U), int32(e.V))
				g.extraPeer = append(g.extraPeer, int32(e.V), int32(e.U))
				g.extraEdge = append(g.extraEdge, id, id)
				g.boundary = append(g.boundary, e)
			}
		}
		off += s.count
		if s.count > 0 {
			g.segs = append(g.segs, s)
		}
	}
	g.total = off
	// Sort the half-edges by (node, peer) so each node's extras list is
	// ascending by peer.
	idx := make([]int, len(g.extraNode))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if g.extraNode[ia] != g.extraNode[ib] {
			return g.extraNode[ia] < g.extraNode[ib]
		}
		return g.extraPeer[ia] < g.extraPeer[ib]
	})
	pn := make([]int32, len(idx))
	pp := make([]int32, len(idx))
	pe := make([]int64, len(idx))
	for i, j := range idx {
		pn[i], pp[i], pe[i] = g.extraNode[j], g.extraPeer[j], g.extraEdge[j]
	}
	g.extraNode, g.extraPeer, g.extraEdge = pn, pp, pe
	return g, nil
}

func (g *blockImplicit) Name() string    { return g.name }
func (g *blockImplicit) NumNodes() int   { return g.n }
func (g *blockImplicit) NumEdges() int64 { return g.total }
func (g *blockImplicit) SplitPoint() int { return g.split }

// blockOf locates the block containing node u (blocks are contiguous and
// ascending).
func (g *blockImplicit) blockOf(u int32) int {
	return sort.Search(len(g.blocks), func(i int) bool { return g.blocks[i][1] > u })
}

// extraRange returns the [lo, hi) slice bounds of node u's cross
// half-edges.
func (g *blockImplicit) extraRange(u int32) (int, int) {
	lo := sort.Search(len(g.extraNode), func(i int) bool { return g.extraNode[i] >= u })
	hi := lo
	for hi < len(g.extraNode) && g.extraNode[hi] == u {
		hi++
	}
	return lo, hi
}

func (g *blockImplicit) Degree(u int) int {
	b := g.blockOf(int32(u))
	lo, hi := g.extraRange(int32(u))
	return int(g.blocks[b][1]-g.blocks[b][0]) - 1 + (hi - lo)
}

func (g *blockImplicit) Neighbor(u, k int) (int, int64) {
	uu := int32(u)
	b := g.blockOf(uu)
	blo, bhi := g.blocks[b][0], g.blocks[b][1]
	elo, ehi := g.extraRange(uu)
	// Cross peers live entirely outside [blo, bhi), so the ascending
	// neighbour order is: extras below the block, the clique range, then
	// extras above the block.
	pre := elo
	for pre < ehi && g.extraPeer[pre] < blo {
		pre++
	}
	nPre := pre - elo
	if k < nPre {
		return int(g.extraPeer[elo+k]), g.extraEdge[elo+k]
	}
	k -= nPre
	if m := int(bhi - blo - 1); k < m {
		peer := blo + int32(k)
		if peer >= uu {
			peer++
		}
		a, bb := uu-blo, peer-blo
		if a > bb {
			a, bb = bb, a
		}
		return int(peer), g.blockSeg[b] + cliqueEdgeIndex(int(bhi-blo), int(a), int(bb))
	} else {
		k -= m
	}
	if pre+k < ehi {
		return int(g.extraPeer[pre+k]), g.extraEdge[pre+k]
	}
	panic(fmt.Sprintf("graph: implicit %s: neighbor index out of range for node %d", g.name, u))
}

func (g *blockImplicit) EdgeAt(id int64) (int, int) {
	if id < 0 || id >= g.total {
		panic(fmt.Sprintf("graph: implicit %s: edge id %d outside [0,%d)", g.name, id, g.total))
	}
	i := sort.Search(len(g.segs), func(i int) bool { return g.segs[i].off+g.segs[i].count > id })
	s := &g.segs[i]
	t := id - s.off
	if s.size > 0 {
		u, v := cliqueEdgeAt(s.size, t)
		return int(s.lo) + u, int(s.lo) + v
	}
	e := s.edges[t]
	return int(e.U), int(e.V)
}

// Tiling maps every clique block to one tile and every cross edge to the
// boundary.
func (g *blockImplicit) Tiling() *Tiling {
	t := &Tiling{N: g.n, Boundary: g.boundary}
	for _, b := range g.blocks {
		lo, hi := b[0], b[1]
		t.Tiles = append(t.Tiles, Tile{
			Lo:    lo,
			Hi:    hi,
			Edges: cliqueEdges(int(hi - lo)),
			Fill:  cliqueFill(lo, int(hi-lo)),
		})
	}
	return t
}

// --- family constructors ------------------------------------------------

// ImplicitDumbbell is Dumbbell without materialisation: identical node
// labelling, edge-id order and validation. cutEdges must lie in
// [1, min(n1, n2)], the range of distinct endpoint pairs — the same
// domain Dumbbell accepts.
func ImplicitDumbbell(n1, n2, cutEdges int) (Implicit, error) {
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
	return newBlockImplicit(
		fmt.Sprintf("dumbbell(n1=%d,n2=%d,cut=%d)", n1, n2, cutEdges),
		n1+n2, n1,
		[][2]int32{{0, int32(n1)}, {int32(n1), int32(n1 + n2)}},
		[]segment{
			{lo: 0, size: n1},
			{lo: int32(n1), size: n2},
			{edges: cut},
		})
}

// ImplicitSymmetricDumbbell is SymmetricDumbbell without materialisation.
func ImplicitSymmetricDumbbell(n, cutEdges int) (Implicit, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: symmetric dumbbell needs n >= 2, got %d", n)
	}
	return ImplicitDumbbell(n/2, n-n/2, cutEdges)
}

// ImplicitRingOfCliques is RingOfCliques without materialisation:
// identical node labelling, edge-id order (per block: clique edges, then
// that block's outgoing bridges) and validation.
func ImplicitRingOfCliques(blocks, m, bridges int) (Implicit, error) {
	if blocks < 3 {
		return nil, fmt.Errorf("graph: ring of cliques needs blocks >= 3, got %d", blocks)
	}
	if m < 1 {
		return nil, fmt.Errorf("graph: ring of cliques needs clique size >= 1, got %d", m)
	}
	if bridges < 1 || bridges > m {
		return nil, fmt.Errorf("graph: ring of cliques bridges %d outside [1, %d]", bridges, m)
	}
	n := blocks * m
	bb := make([][2]int32, blocks)
	var segs []segment
	for i := 0; i < blocks; i++ {
		base := i * m
		bb[i] = [2]int32{int32(base), int32(base + m)}
		segs = append(segs, segment{lo: int32(base), size: m})
		next := ((i + 1) % blocks) * m
		br := make([]Edge, bridges)
		for k := 0; k < bridges; k++ {
			br[k] = NewEdge(NodeID(base+m-1-k), NodeID(next+k))
		}
		segs = append(segs, segment{edges: br})
	}
	return newBlockImplicit(
		fmt.Sprintf("ringofcliques(blocks=%d,m=%d,bridges=%d)", blocks, m, bridges),
		n, (blocks/2)*m, bb, segs)
}

// ImplicitHierarchicalDumbbell is HierarchicalDumbbell without
// materialisation: identical clique layout, interleaved inner-cut edge
// order, and validation.
func ImplicitHierarchicalDumbbell(n, innerCut, outerCut int) (Implicit, error) {
	if n < 8 {
		return nil, fmt.Errorf("graph: hierarchical dumbbell needs n >= 8, got %d", n)
	}
	half1, half2 := n/2, n-n/2
	q1, q3 := half1/2, half2/2
	sizeA, sizeB := q1, half1-q1
	sizeC, sizeD := q3, half2-q3
	if innerCut < 1 || innerCut > min(sizeA, sizeB) || innerCut > min(sizeC, sizeD) {
		return nil, fmt.Errorf("graph: hierarchical dumbbell innerCut %d outside [1, %d]",
			innerCut, min(sizeA, sizeB, sizeC, sizeD))
	}
	if outerCut < 1 || outerCut > min(sizeB, sizeC) {
		return nil, fmt.Errorf("graph: hierarchical dumbbell outerCut %d outside [1, %d]",
			outerCut, min(sizeB, sizeC))
	}
	// Inner cuts interleave in insertion order: A|B then C|D per k.
	inner := make([]Edge, 0, 2*innerCut)
	for k := 0; k < innerCut; k++ {
		inner = append(inner,
			NewEdge(NodeID(q1-1-k), NodeID(q1+k)),
			NewEdge(NodeID(half1+q3-1-k), NodeID(half1+q3+k)))
	}
	outer := make([]Edge, outerCut)
	for k := 0; k < outerCut; k++ {
		outer[k] = NewEdge(NodeID(half1-1-k), NodeID(half1+k))
	}
	return newBlockImplicit(
		fmt.Sprintf("hierdumbbell(n=%d,inner=%d,outer=%d)", n, innerCut, outerCut),
		n, half1,
		[][2]int32{
			{0, int32(q1)},
			{int32(q1), int32(half1)},
			{int32(half1), int32(half1 + q3)},
			{int32(half1 + q3), int32(n)},
		},
		[]segment{
			{lo: 0, size: sizeA},
			{lo: int32(q1), size: sizeB},
			{lo: int32(half1), size: sizeC},
			{lo: int32(half1 + q3), size: sizeD},
			{edges: inner},
			{edges: outer},
		})
}
