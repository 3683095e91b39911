// Package graph provides the immutable undirected-graph substrate used by
// every simulator and experiment in this repository: a compact adjacency
// representation, a validating builder, a library of generators (complete
// graphs, dumbbells, planted partitions, geometric graphs, ...), vertex
// partitions with cut/conductance accounting, traversal utilities, and
// Graphviz DOT export.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected.
// Nodes are identified by dense integer IDs in [0, NumNodes), edges by dense
// IDs in [0, NumEdges) — both are stable for the lifetime of the graph,
// which lets simulators index per-edge state with plain slices.
//
// Key types: Graph (immutable; one flat offset + half-edge adjacency
// array, built by Builder with two counting sorts and no edge map),
// Partition (two-way cut accounting), the generator zoo in
// generators.go/composites.go. See DESIGN.md §1 for the package layout,
// §6.1 for the adjacency layout and its build, and §7 for the family
// registry built on top.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a vertex. IDs are dense: 0 <= id < NumNodes().
type NodeID int32

// EdgeID identifies an edge. IDs are dense: 0 <= id < NumEdges().
type EdgeID int32

// Edge is an undirected edge between two distinct nodes. The constructor
// normalises so that U < V.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the normalised edge {u, v} with U < V.
func NewEdge(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String renders the edge as "u-v".
func (e Edge) String() string { return fmt.Sprintf("%d-%d", e.U, e.V) }

// HalfEdge is one directed half of an undirected edge as seen from a node's
// adjacency list.
type HalfEdge struct {
	Peer NodeID // the neighbouring node
	Edge EdgeID // the undirected edge connecting them
}

// Graph is an immutable simple undirected graph. Construct with a Builder
// or one of the generators. The zero value is an empty graph with no nodes.
type Graph struct {
	name  string
	n     int
	edges []Edge
	// Flat adjacency: the half-edges of node u are half[off[u]:off[u+1]],
	// sorted by peer. len(off) = n+1 and len(half) = 2·|E|.
	off  []int32
	half []HalfEdge
	// pos holds optional 2-D coordinates (geometric generators); nil otherwise.
	pos []Point

	// Flat endpoint arrays, so simulation kernels resolve an edge's
	// endpoints with two int32 loads instead of an Edge struct load.
	edgeU, edgeV []int32 // endpoints of edge id, edgeU[id] < edgeV[id]
}

// Point is a 2-D coordinate attached to nodes of geometric graphs.
type Point struct {
	X, Y float64
}

// Name returns the human-readable graph name ("" if unset).
func (g *Graph) Name() string { return g.name }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the endpoints of edge id. It panics on an out-of-range id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the full edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeU returns the flat lower-endpoint array: EdgeU()[id] and EdgeV()[id]
// are the endpoints of edge id with EdgeU()[id] < EdgeV()[id]. Hot loops
// index it directly instead of loading Edge structs. The caller must not
// modify it.
func (g *Graph) EdgeU() []int32 { return g.edgeU }

// EdgeV returns the flat upper-endpoint array; see EdgeU. The caller must
// not modify it.
func (g *Graph) EdgeV() []int32 { return g.edgeV }

// Degree returns the number of neighbours of node u.
func (g *Graph) Degree(u NodeID) int { return int(g.off[u+1] - g.off[u]) }

// Neighbors returns u's adjacency list, sorted by peer. The caller must not
// modify it; its capacity ends at the row, so appending to it cannot
// overwrite the next node's half-edges.
func (g *Graph) Neighbors(u NodeID) []HalfEdge {
	lo, hi := g.off[u], g.off[u+1]
	return g.half[lo:hi:hi]
}

// MaxDegree returns the largest degree in the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for u := 0; u < g.n; u++ {
		if d := int(g.off[u+1] - g.off[u]); d > m {
			m = d
		}
	}
	return m
}

// HasPositions reports whether nodes carry geometric coordinates.
func (g *Graph) HasPositions() bool { return g.pos != nil }

// Position returns the coordinate of node u, or the zero Point when the
// graph carries no positions.
func (g *Graph) Position(u NodeID) Point {
	if g.pos == nil {
		return Point{}
	}
	return g.pos[u]
}

// FindEdge returns the edge id connecting u and v, if any, by binary
// search of u's adjacency list (sorted by peer).
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() || u < 0 || v < 0 {
		return 0, false
	}
	adj := g.Neighbors(u)
	i, ok := slices.BinarySearchFunc(adj, v, func(he HalfEdge, v NodeID) int { return cmp.Compare(he.Peer, v) })
	if !ok {
		return 0, false
	}
	return adj[i].Edge, true
}

// String renders a short description like "dumbbell(n=64): 64 nodes, 993 edges".
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s: %d nodes, %d edges", name, g.NumNodes(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is ready to use. Builders are not safe for concurrent use.
type Builder struct {
	n     int
	order []Edge // every insertion, normalised, repeats included
	name  string
	pos   []Point
	err   error
}

// NewBuilder returns a builder for a graph with n nodes (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	b := &Builder{}
	if n < 0 {
		b.err = fmt.Errorf("graph: negative node count %d", n)
		return b
	}
	if err := checkIndexSpace(n, 0); err != nil {
		b.err = err
		return b
	}
	b.n = n
	return b
}

// SetName sets the graph's human-readable name.
func (b *Builder) SetName(name string) *Builder {
	b.name = name
	return b
}

// SetPositions attaches 2-D coordinates; len(pos) must equal the node count
// at Build time.
func (b *Builder) SetPositions(pos []Point) *Builder {
	b.pos = pos
	return b
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// endpoints are recorded as errors reported by Build. A repeated edge, in
// either orientation, is dropped by Build and keeps the id of its first
// insertion, so generators may be sloppy about double insertion.
func (b *Builder) AddEdge(u, v NodeID) *Builder {
	if b.err != nil {
		return b
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
		return b
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		b.err = fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n)
		return b
	}
	b.order = append(b.order, NewEdge(u, v))
	return b
}

// Build validates and returns the immutable graph. Edge ids follow first
// insertion and every adjacency row is sorted by peer. The builder may be
// reused afterwards (further AddEdge calls do not affect the built graph).
//
// Build uses no map and no comparison sort. A counting sort by endpoint
// lays each node's half-edges out in insertion order. A second counting
// pass reads those rows in ascending node order and moves every half-edge
// to its peer's row, which leaves each row sorted by peer, with the copies
// of a repeated edge adjacent and in insertion order. Only when such a
// repeat exists does dedupe drop the later copies and renumber.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.pos != nil && len(b.pos) != b.n {
		return nil, fmt.Errorf("graph: %d positions for %d nodes", len(b.pos), b.n)
	}
	if err := checkIndexSpace(b.n, len(b.order)); err != nil {
		return nil, err
	}
	n, m := b.n, len(b.order)
	g := &Graph{
		name:  b.name,
		n:     n,
		edges: append([]Edge(nil), b.order...),
		off:   make([]int32, n+1),
	}
	if b.pos != nil {
		g.pos = append([]Point(nil), b.pos...)
	}
	off := g.off
	for _, e := range g.edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	// Rows in insertion order.
	next := make([]int32, n)
	copy(next, off)
	byID := make([]HalfEdge, 2*m)
	for id, e := range g.edges {
		byID[next[e.U]] = HalfEdge{Peer: e.V, Edge: EdgeID(id)}
		next[e.U]++
		byID[next[e.V]] = HalfEdge{Peer: e.U, Edge: EdgeID(id)}
		next[e.V]++
	}
	// Rows sorted by peer: node u's half-edge to p becomes p's half-edge
	// to u, and u ascends.
	copy(next, off)
	half := make([]HalfEdge, 2*m)
	repeats := false
	for u := 0; u < n; u++ {
		for _, he := range byID[off[u]:off[u+1]] {
			p := he.Peer
			k := next[p]
			if k > off[p] && half[k-1].Peer == NodeID(u) {
				repeats = true
			}
			half[k] = HalfEdge{Peer: NodeID(u), Edge: he.Edge}
			next[p] = k + 1
		}
	}
	g.half = half
	if repeats {
		g.dedupe()
	}
	g.edgeU = make([]int32, len(g.edges))
	g.edgeV = make([]int32, len(g.edges))
	for id, e := range g.edges {
		g.edgeU[id] = int32(e.U)
		g.edgeV[id] = int32(e.V)
	}
	return g, nil
}

// dedupe drops repeated edges from a graph under construction whose rows
// hold the copies of an edge adjacent and in insertion order. It keeps the
// first copy of each edge and renumbers edge ids by first insertion.
func (g *Graph) dedupe() {
	remap := make([]EdgeID, len(g.edges))
	for id := range remap {
		remap[id] = -1
	}
	for u := 0; u < g.n; u++ {
		prev := NodeID(-1)
		for _, he := range g.Neighbors(NodeID(u)) {
			if he.Peer != prev {
				remap[he.Edge] = 0
				prev = he.Peer
			}
		}
	}
	kept := 0
	for id, e := range g.edges {
		if remap[id] == 0 {
			remap[id] = EdgeID(kept)
			g.edges[kept] = e
			kept++
		}
	}
	g.edges = g.edges[:kept]
	w, lo := int32(0), g.off[0]
	for u := 0; u < g.n; u++ {
		hi := g.off[u+1]
		g.off[u] = w
		prev := NodeID(-1)
		for _, he := range g.half[lo:hi] {
			if he.Peer != prev {
				g.half[w] = HalfEdge{Peer: he.Peer, Edge: remap[he.Edge]}
				w++
				prev = he.Peer
			}
		}
		lo = hi
	}
	g.off[g.n] = w
	g.half = g.half[:w]
}

// MustBuild is Build for generators with no failure mode; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ErrTooLarge is returned (wrapped) when a graph would overflow the int32
// id space of the materialised representation: NodeID/EdgeID are int32, and
// the flat half-edge array additionally needs 2·|E| (the offset sentinel)
// to fit an int32. Callers hitting it on a dumbbell or ring of cliques
// should switch to the Implicit representation, whose edge count is int64.
var ErrTooLarge = errors.New("graph: graph exceeds int32 index space")

// maxBuildEdges bounds |E| so 2·|E| half-edges stay representable: the
// offset sentinel off[n] = 2·|E| must fit an int32.
const maxBuildEdges = (math.MaxInt32 - 1) / 2

// checkIndexSpace validates node and edge counts against the int32 id
// space before Build commits to its large allocations. Build passes the raw
// insertion count, repeats included: it sizes its O(|E|) arrays from that
// count before dedupe, so the insertions themselves must fit.
func checkIndexSpace(nodes, edges int) error {
	if int64(nodes) > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes (max %d)", ErrTooLarge, nodes, math.MaxInt32)
	}
	if int64(edges) > maxBuildEdges {
		return fmt.Errorf("%w: %d edges (max %d)", ErrTooLarge, edges, maxBuildEdges)
	}
	return nil
}

// ErrDisconnected is returned by validators that require connectivity.
var ErrDisconnected = errors.New("graph: graph is not connected")

// RequireConnected returns ErrDisconnected (wrapped with the graph name)
// unless g is connected and non-empty.
func RequireConnected(g *Graph) error {
	if g.NumNodes() == 0 || !IsConnected(g) {
		return fmt.Errorf("%s: %w", g.String(), ErrDisconnected)
	}
	return nil
}
