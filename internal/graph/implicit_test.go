package graph

import (
	"errors"
	"math"
	"testing"

	"sparsecut/internal/rng"
)

// implicitCase pairs an implicit constructor with its materialised
// reference for the equivalence suite.
type implicitCase struct {
	name string
	imp  func() (Implicit, error)
	mat  func() *Graph
	n1   int // expected SplitPoint (0 = no planted cut)
}

func implicitCases() []implicitCase {
	var cases []implicitCase
	// Dumbbell across sizes (incl. asymmetric, minimal sides) and cut widths.
	for _, c := range []struct{ n1, n2, cut int }{
		{1, 1, 1}, {2, 3, 1}, {5, 5, 1}, {8, 8, 3}, {7, 12, 7}, {16, 16, 16}, {13, 9, 4},
	} {
		c := c
		cases = append(cases, implicitCase{
			name: "dumbbell",
			imp:  func() (Implicit, error) { return ImplicitDumbbell(c.n1, c.n2, c.cut) },
			mat:  func() *Graph { g, _, _ := Dumbbell(c.n1, c.n2, c.cut); return g },
			n1:   c.n1,
		})
	}
	for _, c := range []struct{ n, cut int }{{2, 1}, {7, 2}, {20, 5}} {
		c := c
		cases = append(cases, implicitCase{
			name: "symdumbbell",
			imp:  func() (Implicit, error) { return ImplicitSymmetricDumbbell(c.n, c.cut) },
			mat:  func() *Graph { g, _, _ := SymmetricDumbbell(c.n, c.cut); return g },
			n1:   c.n / 2,
		})
	}
	// Ring of cliques, including the degenerate m=1 cycle.
	for _, c := range []struct{ blocks, m, bridges int }{
		{3, 1, 1}, {3, 4, 1}, {4, 6, 2}, {5, 3, 3}, {6, 5, 1},
	} {
		c := c
		cases = append(cases, implicitCase{
			name: "ringofcliques",
			imp:  func() (Implicit, error) { return ImplicitRingOfCliques(c.blocks, c.m, c.bridges) },
			mat:  func() *Graph { g, _, _ := RingOfCliques(c.blocks, c.m, c.bridges); return g },
			n1:   (c.blocks / 2) * c.m,
		})
	}
	for _, c := range []struct{ n, inner, outer int }{
		{8, 1, 1}, {16, 2, 3}, {21, 2, 2}, {32, 4, 8},
	} {
		c := c
		cases = append(cases, implicitCase{
			name: "hierdumbbell",
			imp:  func() (Implicit, error) { return ImplicitHierarchicalDumbbell(c.n, c.inner, c.outer) },
			mat:  func() *Graph { g, _, _ := HierarchicalDumbbell(c.n, c.inner, c.outer); return g },
			n1:   c.n / 2,
		})
	}
	for _, c := range []struct{ rows, cols int }{
		{1, 1}, {1, 7}, {7, 1}, {2, 2}, {4, 5}, {6, 6}, {3, 9},
	} {
		c := c
		n1 := 0
		if c.rows >= 2 {
			n1 = (c.rows / 2) * c.cols
		}
		cases = append(cases, implicitCase{
			name: "grid",
			imp:  func() (Implicit, error) { return ImplicitGrid(c.rows, c.cols) },
			mat:  func() *Graph { return Grid(c.rows, c.cols) },
			n1:   n1,
		})
	}
	for _, c := range []struct{ rows, cols int }{{3, 3}, {3, 5}, {4, 4}, {5, 7}} {
		c := c
		cases = append(cases, implicitCase{
			name: "torus",
			imp:  func() (Implicit, error) { return ImplicitTorus(c.rows, c.cols) },
			mat:  func() *Graph { return Torus(c.rows, c.cols) },
			n1:   (c.rows / 2) * c.cols,
		})
	}
	return cases
}

// TestImplicitMatchesMaterialized is the satellite equivalence suite: for
// every implicit family, node/edge counts, the edge-id enumeration, the
// per-node degrees, and the sorted neighbourhoods (peer AND edge id) must
// be element-identical to the materialised Builder output.
func TestImplicitMatchesMaterialized(t *testing.T) {
	for _, tc := range implicitCases() {
		ig, err := tc.imp()
		if err != nil {
			t.Fatalf("%s: implicit constructor: %v", tc.name, err)
		}
		g := tc.mat()
		if g == nil {
			t.Fatalf("%s: materialised constructor failed", tc.name)
		}
		label := ig.Name()
		if ig.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: NumNodes %d != %d", label, ig.NumNodes(), g.NumNodes())
		}
		if ig.NumEdges() != int64(g.NumEdges()) {
			t.Fatalf("%s: NumEdges %d != %d", label, ig.NumEdges(), g.NumEdges())
		}
		if ig.SplitPoint() != tc.n1 {
			t.Errorf("%s: SplitPoint %d != %d", label, ig.SplitPoint(), tc.n1)
		}
		for id, e := range g.Edges() {
			u, v := ig.EdgeAt(int64(id))
			if NodeID(u) != e.U || NodeID(v) != e.V {
				t.Fatalf("%s: EdgeAt(%d) = (%d,%d), want %v", label, id, u, v, e)
			}
		}
		for u := 0; u < g.NumNodes(); u++ {
			adj := g.Neighbors(NodeID(u))
			if d := ig.Degree(u); d != len(adj) {
				t.Fatalf("%s: Degree(%d) = %d, want %d", label, u, d, len(adj))
			}
			for k, he := range adj {
				peer, edge := ig.Neighbor(u, k)
				if NodeID(peer) != he.Peer || EdgeID(edge) != he.Edge {
					t.Fatalf("%s: Neighbor(%d,%d) = (%d,%d), want (%d,%d)",
						label, u, k, peer, edge, he.Peer, he.Edge)
				}
			}
		}
	}
}

// TestImplicitTilingInvariants checks the tiling contract every family
// must satisfy: tiles are contiguous ascending ranges covering [0, n),
// internal + boundary edge counts total NumEdges, every boundary edge
// crosses tiles and exists in the materialised graph, and tile Fill
// produces only valid internal edges of the owning tile.
func TestImplicitTilingInvariants(t *testing.T) {
	for _, tc := range implicitCases() {
		ig, err := tc.imp()
		if err != nil {
			t.Fatalf("%s: implicit constructor: %v", tc.name, err)
		}
		g := tc.mat()
		label := ig.Name()
		til := ig.Tiling()
		if til.N != ig.NumNodes() {
			t.Fatalf("%s: tiling N %d != %d", label, til.N, ig.NumNodes())
		}
		var next int32
		for i, tl := range til.Tiles {
			if tl.Lo != next || tl.Hi <= tl.Lo {
				t.Fatalf("%s: tile %d range [%d,%d) not contiguous after %d", label, i, tl.Lo, tl.Hi, next)
			}
			next = tl.Hi
		}
		if int(next) != til.N {
			t.Fatalf("%s: tiles cover [0,%d), want [0,%d)", label, next, til.N)
		}
		if got := til.InternalEdges() + int64(len(til.Boundary)); got != ig.NumEdges() {
			t.Fatalf("%s: internal %d + boundary %d != NumEdges %d",
				label, til.InternalEdges(), len(til.Boundary), ig.NumEdges())
		}
		tileOf := func(u NodeID) int {
			for i, tl := range til.Tiles {
				if int32(u) >= tl.Lo && int32(u) < tl.Hi {
					return i
				}
			}
			t.Fatalf("%s: node %d in no tile", label, u)
			return -1
		}
		seen := make(map[Edge]struct{})
		for _, e := range til.Boundary {
			if tileOf(e.U) == tileOf(e.V) {
				t.Fatalf("%s: boundary edge %v inside tile %d", label, e, tileOf(e.U))
			}
			if _, ok := g.FindEdge(e.U, e.V); !ok {
				t.Fatalf("%s: boundary edge %v not in graph", label, e)
			}
			if _, dup := seen[e]; dup {
				t.Fatalf("%s: boundary edge %v listed twice", label, e)
			}
			seen[e] = struct{}{}
		}
		// Fill must emit existing edges wholly inside the tile.
		r := rng.New(7)
		var us, vs [64]int32
		for i, tl := range til.Tiles {
			if tl.Edges == 0 {
				continue
			}
			tl.Fill(r, us[:], vs[:])
			for k := range us {
				u, v := us[k], vs[k]
				if u < tl.Lo || u >= tl.Hi || v < tl.Lo || v >= tl.Hi {
					t.Fatalf("%s: tile %d Fill emitted (%d,%d) outside [%d,%d)", label, i, u, v, tl.Lo, tl.Hi)
				}
				if _, ok := g.FindEdge(NodeID(u), NodeID(v)); !ok {
					t.Fatalf("%s: tile %d Fill emitted non-edge (%d,%d)", label, i, u, v)
				}
			}
		}
	}
}

// TestImplicitSampleEdgeUniform spot-checks the dense-id uniform sampler:
// on a small dumbbell every edge must be hit with near-uniform frequency.
func TestImplicitSampleEdgeUniform(t *testing.T) {
	ig, err := ImplicitDumbbell(5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := int(ig.NumEdges())
	counts := make([]int, m)
	ids := make(map[[2]int]int, m)
	for id := 0; id < m; id++ {
		u, v := ig.EdgeAt(int64(id))
		ids[[2]int{u, v}] = id
	}
	r := rng.New(42)
	const draws = 50000
	for i := 0; i < draws; i++ {
		u, v := SampleEdge(ig, r)
		id, ok := ids[[2]int{u, v}]
		if !ok {
			t.Fatalf("sampled non-edge (%d,%d)", u, v)
		}
		counts[id]++
	}
	want := float64(draws) / float64(m)
	for id, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("edge %d drawn %d times, want ~%.0f", id, c, want)
		}
	}
}

// TestImplicitConstructorErrors mirrors the materialised validation.
func TestImplicitConstructorErrors(t *testing.T) {
	bad := []func() (Implicit, error){
		func() (Implicit, error) { return ImplicitDumbbell(0, 5, 1) },
		func() (Implicit, error) { return ImplicitDumbbell(5, 5, 0) },
		func() (Implicit, error) { return ImplicitDumbbell(5, 5, 6) },
		func() (Implicit, error) { return ImplicitSymmetricDumbbell(1, 1) },
		func() (Implicit, error) { return ImplicitRingOfCliques(2, 4, 1) },
		func() (Implicit, error) { return ImplicitRingOfCliques(4, 4, 5) },
		func() (Implicit, error) { return ImplicitHierarchicalDumbbell(7, 1, 1) },
		func() (Implicit, error) { return ImplicitHierarchicalDumbbell(16, 5, 1) },
		func() (Implicit, error) { return ImplicitGrid(0, 3) },
		func() (Implicit, error) { return ImplicitTorus(2, 5) },
	}
	for i, f := range bad {
		if _, err := f(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestCliqueEdgeAtRoundTrip exercises the triangular inversion across the
// full id range for several clique sizes.
func TestCliqueEdgeAtRoundTrip(t *testing.T) {
	for _, s := range []int{2, 3, 5, 17, 100} {
		for id := int64(0); id < cliqueEdges(s); id++ {
			u, v := cliqueEdgeAt(s, id)
			if u < 0 || v <= u || v >= s {
				t.Fatalf("s=%d id=%d: invalid edge (%d,%d)", s, id, u, v)
			}
			if back := cliqueEdgeIndex(s, u, v); back != id {
				t.Fatalf("s=%d: index(%d,%d) = %d, want %d", s, u, v, back, id)
			}
		}
	}
}

// TestCliqueFillMatchesIntn pins cliqueFill's stream consumption: its
// inlined draws must yield the pairs of r.Intn(size), r.Intn(size-1) and
// the shift on a twin stream, and leave both streams at the same position,
// across clique sizes and chunk lengths straddling the RNG's block size.
func TestCliqueFillMatchesIntn(t *testing.T) {
	const base = 7
	for _, size := range []int{2, 3, 64, 500_000} {
		fill := cliqueFill(base, size)
		for _, chunk := range []int{1, 255, 256, 257} {
			seed := uint64(size*1000 + chunk)
			r, twin := rng.New(seed), rng.New(seed)
			us, vs := make([]int32, chunk), make([]int32, chunk)
			for call := 0; call < 5; call++ {
				fill(r, us, vs)
				for k := range us {
					i := twin.Intn(size)
					j := twin.Intn(size - 1)
					if j >= i {
						j++
					}
					if us[k] != base+int32(i) || vs[k] != base+int32(j) {
						t.Fatalf("size %d chunk %d call %d pair %d: (%d,%d), want (%d,%d)",
							size, chunk, call, k, us[k], vs[k], base+i, base+j)
					}
				}
			}
			if a, b := r.Uint64(), twin.Uint64(); a != b {
				t.Fatalf("size %d chunk %d: streams diverged after the fills: %#x vs %#x", size, chunk, a, b)
			}
		}
	}
}

// TestMillionNodeImplicit is the scale smoke: a 10^6-node dumbbell's
// index arithmetic must work where materialisation is impossible
// (~2.5·10^11 edges).
func TestMillionNodeImplicit(t *testing.T) {
	ig, err := ImplicitDumbbell(500000, 500000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ig.NumNodes() != 1000000 {
		t.Fatalf("NumNodes = %d", ig.NumNodes())
	}
	want := 2*cliqueEdges(500000) + 8
	if ig.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", ig.NumEdges(), want)
	}
	// Round-trip a spread of edge ids through EdgeAt/Neighbor.
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		id := int64(r.Intn(int(ig.NumEdges())))
		u, v := ig.EdgeAt(id)
		found := false
		for k := 0; k < ig.Degree(u); k++ {
			if p, e := ig.Neighbor(u, k); p == v {
				if e != id {
					t.Fatalf("edge id mismatch at (%d,%d): %d != %d", u, v, e, id)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("EdgeAt(%d) = (%d,%d) but v not a neighbor of u", id, u, v)
		}
	}
	// The cut node's degree: clique (499999) + its cross edge.
	if d := ig.Degree(499999); d != 500000 {
		t.Fatalf("Degree(499999) = %d, want 500000", d)
	}
	til := ig.Tiling()
	if len(til.Tiles) != 2 || len(til.Boundary) != 8 {
		t.Fatalf("tiling: %d tiles, %d boundary", len(til.Tiles), len(til.Boundary))
	}
}

// TestBuildIndexSpaceGuard pins the int32 guard at its exact boundaries:
// the counts just inside the id space pass, one past fails with
// ErrTooLarge, and NewBuilder rejects an impossible node count up front.
func TestBuildIndexSpaceGuard(t *testing.T) {
	if err := checkIndexSpace(math.MaxInt32, maxBuildEdges); err != nil {
		t.Errorf("at the boundary: unexpected error %v", err)
	}
	if err := checkIndexSpace(math.MaxInt32+1, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("nodes past boundary: got %v, want ErrTooLarge", err)
	}
	if err := checkIndexSpace(0, maxBuildEdges+1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("edges past boundary: got %v, want ErrTooLarge", err)
	}
	b := NewBuilder(math.MaxInt32 + 1)
	if _, err := b.Build(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("NewBuilder(2^31): Build err = %v, want ErrTooLarge", err)
	}
}
