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
	imp  func() (*Implicit, error)
	mat  func() (*Graph, *Partition)
}

func implicitCases() []implicitCase {
	var cases []implicitCase
	// Dumbbell across sizes (incl. asymmetric, minimal sides) and cut widths.
	for _, c := range []struct{ n1, n2, cut int }{
		{1, 1, 1}, {2, 3, 1}, {5, 5, 1}, {8, 8, 3}, {7, 12, 7}, {16, 16, 16}, {13, 9, 4},
	} {
		cases = append(cases, implicitCase{
			name: "dumbbell",
			imp:  func() (*Implicit, error) { return ImplicitDumbbell(c.n1, c.n2, c.cut) },
			mat:  func() (*Graph, *Partition) { g, p, _ := Dumbbell(c.n1, c.n2, c.cut); return g, p },
		})
	}
	// The symmetric split SymmetricDumbbell makes, odd n included.
	for _, c := range []struct{ n, cut int }{{2, 1}, {7, 2}, {20, 5}} {
		cases = append(cases, implicitCase{
			name: "symdumbbell",
			imp:  func() (*Implicit, error) { return ImplicitDumbbell(c.n/2, c.n-c.n/2, c.cut) },
			mat:  func() (*Graph, *Partition) { g, p, _ := SymmetricDumbbell(c.n, c.cut); return g, p },
		})
	}
	// Ring of cliques, including the degenerate m=1 cycle.
	for _, c := range []struct{ blocks, m, bridges int }{
		{3, 1, 1}, {3, 4, 1}, {4, 6, 2}, {5, 3, 3}, {6, 5, 1},
	} {
		cases = append(cases, implicitCase{
			name: "ringofcliques",
			imp:  func() (*Implicit, error) { return ImplicitRingOfCliques(c.blocks, c.m, c.bridges) },
			mat:  func() (*Graph, *Partition) { g, p, _ := RingOfCliques(c.blocks, c.m, c.bridges); return g, p },
		})
	}
	return cases
}

// TestImplicitMatchesMaterialized checks the data the sharded engine
// reads against the materialised Builder output of the same generator:
// the tiles' cliques plus Boundary are exactly g.Edges(), Boundary lists
// the cross-tile edges in g.Edges() order, and the node count, edge count
// and planted prefix split agree.
func TestImplicitMatchesMaterialized(t *testing.T) {
	for _, tc := range implicitCases() {
		ig, err := tc.imp()
		if err != nil {
			t.Fatalf("%s: implicit constructor: %v", tc.name, err)
		}
		g, part := tc.mat()
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
		for u := 0; u < g.NumNodes(); u++ {
			if want := u < ig.SplitPoint(); (part.SideOf(NodeID(u)) == Side1) != want {
				t.Fatalf("%s: SplitPoint %d, but node %d is on %v", label, ig.SplitPoint(), u, part.SideOf(NodeID(u)))
			}
		}

		til := ig.Tiling()
		tileOf := make([]int, g.NumNodes())
		implicitEdges := make(map[Edge]struct{})
		for i, tl := range til.Tiles {
			for u := tl.Lo; u < tl.Hi; u++ {
				tileOf[u] = i
				for v := u + 1; v < tl.Hi; v++ {
					implicitEdges[NewEdge(NodeID(u), NodeID(v))] = struct{}{}
				}
			}
		}
		for _, e := range til.Boundary {
			implicitEdges[e] = struct{}{}
		}
		if len(implicitEdges) != g.NumEdges() {
			t.Fatalf("%s: tiles + boundary hold %d distinct edges, want %d", label, len(implicitEdges), g.NumEdges())
		}
		var cross []Edge
		for _, e := range g.Edges() {
			if _, ok := implicitEdges[e]; !ok {
				t.Fatalf("%s: edge %v missing from tiles + boundary", label, e)
			}
			if tileOf[e.U] != tileOf[e.V] {
				cross = append(cross, e)
			}
		}
		if len(cross) != len(til.Boundary) {
			t.Fatalf("%s: %d cross-tile edges, Boundary has %d", label, len(cross), len(til.Boundary))
		}
		for i, e := range cross {
			if til.Boundary[i] != e {
				t.Fatalf("%s: Boundary[%d] = %v, want %v (g.Edges() order)", label, i, til.Boundary[i], e)
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
		g, _ := tc.mat()
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
		var internal int64
		for _, tl := range til.Tiles {
			internal += tl.Edges
		}
		if got := internal + int64(len(til.Boundary)); got != ig.NumEdges() {
			t.Fatalf("%s: internal %d + boundary %d != NumEdges %d",
				label, internal, len(til.Boundary), ig.NumEdges())
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

// TestImplicitConstructorErrors mirrors the materialised validation and
// pins the block checks every constructor goes through.
func TestImplicitConstructorErrors(t *testing.T) {
	bad := []func() (*Implicit, error){
		func() (*Implicit, error) { return ImplicitDumbbell(0, 5, 1) },
		func() (*Implicit, error) { return ImplicitDumbbell(5, 5, 0) },
		func() (*Implicit, error) { return ImplicitDumbbell(5, 5, 6) },
		func() (*Implicit, error) { return ImplicitRingOfCliques(2, 4, 1) },
		func() (*Implicit, error) { return ImplicitRingOfCliques(4, 0, 1) },
		func() (*Implicit, error) { return ImplicitRingOfCliques(4, 4, 5) },
	}
	for i, f := range bad {
		if _, err := f(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	blocks := [][2]int32{{0, 2}, {2, 4}}
	if _, err := newImplicit("inside", 4, 2, blocks, []Edge{NewEdge(0, 1)}); err == nil {
		t.Error("cross edge inside one block not rejected")
	}
	if _, err := newImplicit("dup", 4, 2, blocks, []Edge{NewEdge(1, 2), NewEdge(1, 2)}); err == nil {
		t.Error("duplicate cross edge not rejected")
	}
	if _, err := newImplicit("huge", math.MaxInt32+1, 1, nil, nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("2^31 nodes: err = %v, want ErrTooLarge", err)
	}
}

// TestCliqueFillMatchesIntn pins Tile.Fill's stream consumption: its
// draws must yield the pairs of r.Intn(size), r.Intn(size-1) and the
// shift on a twin stream, and leave both streams at the same position,
// across clique sizes and chunk lengths straddling the RNG's block size.
func TestCliqueFillMatchesIntn(t *testing.T) {
	const base = 7
	for _, size := range []int{2, 3, 64, 500_000} {
		tile := Tile{Lo: base, Hi: base + int32(size), Edges: cliqueEdges(size)}
		for _, chunk := range []int{1, 255, 256, 257} {
			seed := uint64(size*1000 + chunk)
			r, twin := rng.New(seed), rng.New(seed)
			us, vs := make([]int32, chunk), make([]int32, chunk)
			for call := 0; call < 5; call++ {
				tile.Fill(r, us, vs)
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

// TestMillionNodeImplicit is the scale smoke: a 10^6-node dumbbell
// (~2.5·10^11 edges, impossible to materialise) must report its counts and
// tile into the two cliques plus Dumbbell's cut edges in generator order.
func TestMillionNodeImplicit(t *testing.T) {
	const side, cut = 500000, 8
	ig, err := ImplicitDumbbell(side, side, cut)
	if err != nil {
		t.Fatal(err)
	}
	if ig.NumNodes() != 2*side || ig.SplitPoint() != side {
		t.Fatalf("NumNodes = %d, SplitPoint = %d", ig.NumNodes(), ig.SplitPoint())
	}
	want := 2*cliqueEdges(side) + cut
	if ig.NumEdges() != want {
		t.Fatalf("NumEdges = %d, want %d", ig.NumEdges(), want)
	}
	til := ig.Tiling()
	if len(til.Tiles) != 2 || til.Tiles[0].Hi != side || til.Tiles[1].Edges != cliqueEdges(side) {
		t.Fatalf("tiling: %d tiles", len(til.Tiles))
	}
	if len(til.Boundary) != cut {
		t.Fatalf("boundary has %d edges, want %d", len(til.Boundary), cut)
	}
	for k, e := range til.Boundary {
		if want := NewEdge(NodeID(side-1-k), NodeID(side+k)); e != want {
			t.Fatalf("Boundary[%d] = %v, want %v", k, e, want)
		}
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
