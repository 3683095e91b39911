package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sparsecut/internal/rng"
)

func TestNewEdgeNormalises(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Errorf("NewEdge(5,2) = %v, want 2-5", e)
	}
	if e.String() != "2-5" {
		t.Errorf("String = %q", e.String())
	}
}

func TestBuilderBasic(t *testing.T) {
	g, err := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Error("wrong degrees")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	if _, err := NewBuilder(2).AddEdge(1, 1).Build(); err == nil {
		t.Error("self-loop not rejected")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := NewBuilder(2).AddEdge(0, 2).Build(); err == nil {
		t.Error("out-of-range edge not rejected")
	}
	if _, err := NewBuilder(2).AddEdge(-1, 0).Build(); err == nil {
		t.Error("negative endpoint not rejected")
	}
}

func TestBuilderRejectsNegativeN(t *testing.T) {
	if _, err := NewBuilder(-1).Build(); err == nil {
		t.Error("negative node count not rejected")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	g, err := NewBuilder(2).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("got %d edges, want 1", g.NumEdges())
	}
}

func TestBuilderPositionLengthMismatch(t *testing.T) {
	if _, err := NewBuilder(2).SetPositions([]Point{{}}).Build(); err == nil {
		t.Error("position length mismatch not rejected")
	}
}

func TestFindEdge(t *testing.T) {
	g := Path(4)
	id, ok := g.FindEdge(1, 2)
	if !ok {
		t.Fatal("edge 1-2 not found")
	}
	if e := g.Edge(id); e != NewEdge(1, 2) {
		t.Errorf("FindEdge returned edge %v", e)
	}
	if _, ok := g.FindEdge(0, 3); ok {
		t.Error("nonexistent edge reported found")
	}
	if _, ok := g.FindEdge(0, 99); ok {
		t.Error("out-of-range node reported found")
	}
	// Symmetric lookup.
	id2, ok := g.FindEdge(2, 1)
	if !ok || id2 != id {
		t.Error("FindEdge not symmetric")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 3).AddEdge(0, 1).AddEdge(0, 2).MustBuild()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1].Peer >= nb[i].Peer {
			t.Fatalf("neighbours not sorted: %v", nb)
		}
	}
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Error("zero-value graph not empty")
	}
	if g.HasPositions() {
		t.Error("zero-value graph claims positions")
	}
	if g.Position(0) != (Point{}) {
		t.Error("zero-value position not zero")
	}
}

func TestGraphString(t *testing.T) {
	g := Complete(4)
	s := g.String()
	if !strings.Contains(s, "4 nodes") || !strings.Contains(s, "6 edges") {
		t.Errorf("String = %q", s)
	}
}

func TestRequireConnected(t *testing.T) {
	if err := RequireConnected(Path(5)); err != nil {
		t.Errorf("path reported disconnected: %v", err)
	}
	g := NewBuilder(3).AddEdge(0, 1).MustBuild()
	if err := RequireConnected(g); err == nil {
		t.Error("disconnected graph passed RequireConnected")
	}
}

// Property: for every generator output, sum of degrees equals 2|E| and
// every edge id round-trips through the adjacency structure.
func TestDegreeSumInvariant(t *testing.T) {
	for _, g := range oracleGraphs(t) {
		if got, want := degreeSum(g), 2*g.NumEdges(); got != want {
			t.Errorf("%s: degree sum %d != 2|E| = %d", g, got, want)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, he := range g.Neighbors(NodeID(u)) {
				if g.Edge(he.Edge) != NewEdge(NodeID(u), he.Peer) {
					t.Errorf("%s: adjacency inconsistent at node %d", g, u)
				}
			}
		}
	}
}

// degreeSum is the sum of all degrees, 2|E| on any valid graph.
func degreeSum(g *Graph) int {
	s := 0
	for u := range g.NumNodes() {
		s += g.Degree(NodeID(u))
	}
	return s
}

func TestBuilderEdgeIDsAreInsertionOrdered(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if g.Edge(0) != NewEdge(2, 3) || g.Edge(1) != NewEdge(0, 1) {
		t.Error("edge IDs do not follow insertion order")
	}
}

func TestBuilderQuickProperty(t *testing.T) {
	r := rng.New(7)
	if err := quick.Check(func(nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw % 60)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// No duplicates: every unordered pair appears at most once.
		seen := map[Edge]bool{}
		for _, e := range g.Edges() {
			if seen[e] || e.U == e.V || e.U > e.V {
				return false
			}
			seen[e] = true
		}
		return degreeSum(g) == 2*g.NumEdges()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// The flat endpoint arrays and the offset + half-edge adjacency built at
// Build time must mirror Edges() and Neighbors() exactly.
func TestFlatArraysAndCSR(t *testing.T) {
	g, _, err := Dumbbell(9, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	eu, ev := g.EdgeU(), g.EdgeV()
	if len(eu) != g.NumEdges() || len(ev) != g.NumEdges() {
		t.Fatalf("flat arrays have %d/%d entries for %d edges", len(eu), len(ev), g.NumEdges())
	}
	for id, e := range g.Edges() {
		if NodeID(eu[id]) != e.U || NodeID(ev[id]) != e.V {
			t.Errorf("edge %d: flat (%d,%d) vs struct %v", id, eu[id], ev[id], e)
		}
		if eu[id] >= ev[id] {
			t.Errorf("edge %d: endpoints not ordered: %d >= %d", id, eu[id], ev[id])
		}
	}
	if len(g.off) != g.NumNodes()+1 {
		t.Fatalf("offsets length %d for %d nodes", len(g.off), g.NumNodes())
	}
	if int(g.off[g.NumNodes()]) != 2*g.NumEdges() || len(g.half) != 2*g.NumEdges() {
		t.Fatalf("half-edge count mismatch: off[n]=%d, len(half)=%d, |E|=%d", g.off[g.NumNodes()], len(g.half), g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		nb := g.Neighbors(NodeID(u))
		if len(nb) != g.Degree(NodeID(u)) || len(nb) != int(g.off[u+1]-g.off[u]) {
			t.Fatalf("node %d: row %d entries, degree %d", u, len(nb), g.Degree(NodeID(u)))
		}
		// The row is capped: appending to it must not clobber node u+1's row.
		if cap(nb) != len(nb) {
			t.Fatalf("node %d: row capacity %d exceeds its length %d", u, cap(nb), len(nb))
		}
		for k, he := range nb {
			if g.half[int(g.off[u])+k] != he {
				t.Errorf("node %d half-edge %d: flat %+v vs row %+v", u, k, g.half[int(g.off[u])+k], he)
			}
		}
	}
}

// An empty graph exposes empty (not nil-panicking) flat views.
func TestFlatArraysEmptyGraph(t *testing.T) {
	g := NewBuilder(3).MustBuild()
	if len(g.EdgeU()) != 0 || len(g.EdgeV()) != 0 {
		t.Error("edgeless graph has flat endpoints")
	}
	if len(g.off) != 4 {
		t.Errorf("offsets length %d, want 4", len(g.off))
	}
	for u := NodeID(0); u < 3; u++ {
		if len(g.Neighbors(u)) != 0 || g.Degree(u) != 0 {
			t.Errorf("node %d of an edgeless graph has neighbours", u)
		}
	}
}

// referenceBuild is the map + per-node append + sort.Slice builder that
// Build replaced, kept as the oracle that pins edge ids and neighbour
// order. It takes the raw insertion sequence, repeats and either
// orientation included, and returns the edge list (ids by first
// insertion) and the peer-sorted adjacency rows.
func referenceBuild(n int, inserts []Edge) ([]Edge, [][]HalfEdge) {
	seen := make(map[Edge]struct{})
	var edges []Edge
	for _, e := range inserts {
		e = NewEdge(e.U, e.V)
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	adj := make([][]HalfEdge, n)
	for id, e := range edges {
		adj[e.U] = append(adj[e.U], HalfEdge{Peer: e.V, Edge: EdgeID(id)})
		adj[e.V] = append(adj[e.V], HalfEdge{Peer: e.U, Edge: EdgeID(id)})
	}
	for _, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i].Peer < a[j].Peer })
	}
	return edges, adj
}

// checkAgainstReference builds inserts with Build and with referenceBuild
// and requires equal edge lists, flat endpoints and adjacency rows.
func checkAgainstReference(t *testing.T, label string, n int, inserts []Edge) {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range inserts {
		b.AddEdge(e.U, e.V)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	edges, adj := referenceBuild(n, inserts)
	requireSameAsReference(t, label, g, edges, adj)
}

func requireSameAsReference(t *testing.T, label string, g *Graph, edges []Edge, adj [][]HalfEdge) {
	t.Helper()
	if g.NumNodes() != len(adj) {
		t.Fatalf("%s: %d nodes, reference %d", label, g.NumNodes(), len(adj))
	}
	if !slices.Equal(g.Edges(), edges) {
		t.Fatalf("%s: edge lists differ:\n got  %v\n want %v", label, g.Edges(), edges)
	}
	for id, e := range edges {
		if g.EdgeU()[id] != int32(e.U) || g.EdgeV()[id] != int32(e.V) {
			t.Fatalf("%s: flat endpoints of edge %d are (%d,%d), want %v", label, id, g.EdgeU()[id], g.EdgeV()[id], e)
		}
	}
	for u, row := range adj {
		if got := g.Neighbors(NodeID(u)); !slices.Equal(got, row) {
			t.Fatalf("%s: node %d neighbours\n got  %v\n want %v", label, u, got, row)
		}
	}
}

// oracleGraphs returns every generator family at test sizes, plus Join and
// both Subgraph sides of a partition.
func oracleGraphs(t *testing.T) []*Graph {
	t.Helper()
	r := rng.New(2024)
	must := func(g *Graph, _ *Partition, err error) *Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gs := []*Graph{
		Complete(7), Path(9), Cycle(6), Star(8), Grid(3, 5),
		must(WalledRGG(r, 40, 0.35, 2, 50)),
		must(Dumbbell(9, 7, 3)), must(SymmetricDumbbell(12, 1)),
		must(TorusDumbbell(40, 3)), must(TorusDumbbell(30, 2)),
		must(RingOfCliques(4, 5, 2)),
		must(PlantedPartition(r, 10, 12, 0.6, 0.1, 50)),
		must(Join(Cycle(5), Complete(4), [][2]NodeID{{0, 0}, {2, 3}, {4, 1}})),
	}
	g, part, err := Dumbbell(8, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := part.Subgraph(Side1)
	s2, _ := part.Subgraph(Side2)
	return append(gs, g, s1, s2)
}

// Build agrees with the reference builder on every generator family: on
// the generator's own graph, on its edge list re-inserted with random
// orientations, and on that list with repeats of earlier edges (in both
// orientations) mixed in.
func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(11)
	for _, g := range oracleGraphs(t) {
		edges, adj := referenceBuild(g.NumNodes(), g.Edges())
		requireSameAsReference(t, g.Name(), g, edges, adj)

		var inserts []Edge
		for i, e := range g.Edges() {
			if r.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			inserts = append(inserts, e)
			if i > 0 && r.Intn(3) == 0 {
				d := g.Edge(EdgeID(r.Intn(i + 1)))
				if r.Intn(2) == 0 {
					d.U, d.V = d.V, d.U
				}
				inserts = append(inserts, d)
			}
		}
		checkAgainstReference(t, g.Name()+" with repeats", g.NumNodes(), inserts)
	}
}

// Random multigraph insertion sequences: many repeats in both orientations,
// isolated nodes, and a repeat as the very first pair.
func TestBuildMatchesReferenceRandomMultigraphs(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(40)
		m := r.Intn(4 * n)
		inserts := make([]Edge, 0, m)
		for len(inserts) < m {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			inserts = append(inserts, Edge{U: u, V: v})
			if r.Intn(4) == 0 {
				inserts = append(inserts, Edge{U: v, V: u})
			}
		}
		checkAgainstReference(t, fmt.Sprintf("trial %d (n=%d, %d inserts)", trial, n, len(inserts)), n, inserts)
	}
	checkAgainstReference(t, "leading repeat", 3, []Edge{{0, 1}, {1, 0}, {2, 1}, {0, 1}, {1, 2}})
	checkAgainstReference(t, "no edges", 4, nil)
}

// The generator outputs hash to the value the map + sort.Slice builder
// produced, so a change in any generator's edge ids or neighbour order
// (and with it every simulated trajectory and byte artifact) fails here.
func TestGeneratorDigestPinned(t *testing.T) {
	h := fnv.New64a()
	put := func(x int32) {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(x))
		h.Write(w[:])
	}
	for _, g := range oracleGraphs(t) {
		h.Write([]byte(g.Name()))
		put(int32(g.NumNodes()))
		for _, e := range g.Edges() {
			put(int32(e.U))
			put(int32(e.V))
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, he := range g.Neighbors(NodeID(u)) {
				put(int32(he.Peer))
				put(int32(he.Edge))
			}
		}
	}
	const want uint64 = 0x6d5c4aff5ebdd404
	if got := h.Sum64(); got != want {
		t.Fatalf("generator digest %#x, want %#x", got, want)
	}
}

// Repeated Builds of one builder, and AddEdge after a Build, leave the
// earlier graph untouched.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(3).AddEdge(0, 1).AddEdge(1, 0)
	g1 := b.MustBuild()
	b.AddEdge(1, 2).AddEdge(0, 1)
	g2 := b.MustBuild()
	if g1.NumEdges() != 1 || g1.Degree(2) != 0 {
		t.Fatalf("first build changed after AddEdge: %v", g1.Edges())
	}
	if want := []Edge{{0, 1}, {1, 2}}; !slices.Equal(g2.Edges(), want) {
		t.Fatalf("second build edges %v, want %v", g2.Edges(), want)
	}
}

// BenchmarkTorusDumbbellBuild times the construction of the 10^5-node
// torus dumbbell the runtime benchmarks run on.
func BenchmarkTorusDumbbellBuild(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := TorusDumbbell(100000, 8); err != nil {
			b.Fatal(err)
		}
	}
}
