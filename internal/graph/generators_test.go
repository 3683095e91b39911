package graph

import (
	"slices"
	"testing"

	"sparsecut/internal/rng"
)

// diameter is the largest BFS distance in a connected graph.
func diameter(g *Graph) int {
	d := 0
	for u := range g.NumNodes() {
		d = max(d, slices.Max(BFSDistances(g, NodeID(u))))
	}
	return d
}

func TestComplete(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		g := Complete(n)
		if g.NumNodes() != n {
			t.Errorf("K_%d: %d nodes", n, g.NumNodes())
		}
		if want := n * (n - 1) / 2; g.NumEdges() != want {
			t.Errorf("K_%d: %d edges, want %d", n, g.NumEdges(), want)
		}
		for u := 0; u < n; u++ {
			if g.Degree(NodeID(u)) != n-1 {
				t.Errorf("K_%d: node %d degree %d", n, u, g.Degree(NodeID(u)))
			}
		}
	}
}

func TestPath(t *testing.T) {
	g := Path(6)
	if g.NumEdges() != 5 {
		t.Errorf("P_6 has %d edges", g.NumEdges())
	}
	if d := diameter(g); d != 5 {
		t.Errorf("P_6 diameter %d", d)
	}
	if g.Degree(0) != 1 || g.Degree(3) != 2 {
		t.Error("wrong path degrees")
	}
	if Path(1).NumEdges() != 0 {
		t.Error("P_1 should have no edges")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(7)
	if g.NumEdges() != 7 {
		t.Errorf("C_7 has %d edges", g.NumEdges())
	}
	for u := 0; u < 7; u++ {
		if g.Degree(NodeID(u)) != 2 {
			t.Errorf("C_7 node %d degree %d", u, g.Degree(NodeID(u)))
		}
	}
	if d := diameter(g); d != 3 {
		t.Errorf("C_7 diameter %d, want 3", d)
	}
}

func TestCyclePanicsSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cycle(2) did not panic")
		}
	}()
	Cycle(2)
}

func TestStar(t *testing.T) {
	g := Star(9)
	if g.Degree(0) != 8 {
		t.Errorf("hub degree %d", g.Degree(0))
	}
	for u := 1; u < 9; u++ {
		if g.Degree(NodeID(u)) != 1 {
			t.Errorf("leaf %d degree %d", u, g.Degree(NodeID(u)))
		}
	}
	if d := diameter(g); d != 2 {
		t.Errorf("star diameter %d", d)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Errorf("%d nodes", g.NumNodes())
	}
	// edges: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17
	if g.NumEdges() != 17 {
		t.Errorf("%d edges, want 17", g.NumEdges())
	}
	if !IsConnected(g) {
		t.Error("grid disconnected")
	}
	if !g.HasPositions() {
		t.Error("grid should carry positions")
	}
	if d := diameter(g); d != 5 {
		t.Errorf("3x4 grid diameter %d, want 5", d)
	}
}

func TestConnectivityRadius(t *testing.T) {
	if r := ConnectivityRadius(1); r != 1 {
		t.Errorf("radius for n=1: %v", r)
	}
	r100 := ConnectivityRadius(100)
	if r100 <= 0 || r100 > 1 {
		t.Errorf("radius for n=100: %v", r100)
	}
	if ConnectivityRadius(1000) >= r100 {
		t.Error("radius should shrink with n")
	}
}

func TestWalledRGG(t *testing.T) {
	r := rng.New(8)
	g, part, err := WalledRGG(r, 80, 0.35, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if part.CutSize() != 2 {
		t.Errorf("cut size %d, want 2 (doors)", part.CutSize())
	}
	if !sidesInternallyConnected(part) {
		t.Error("walled RGG sides not internally connected")
	}
	if !IsConnected(g) {
		t.Error("walled RGG disconnected")
	}
	// All nodes on side 1 should be left of the wall.
	for u := 0; u < g.NumNodes(); u++ {
		left := g.Position(NodeID(u)).X < 0.5
		if left != (part.SideOf(NodeID(u)) == Side1) {
			t.Fatalf("node %d on wrong side", u)
		}
	}
}

func TestWalledRGGErrors(t *testing.T) {
	r := rng.New(9)
	if _, _, err := WalledRGG(r, 50, 0.3, 0, 10); err == nil {
		t.Error("doors=0 not rejected")
	}
	// Tiny radius cannot produce crossings.
	if _, _, err := WalledRGG(r, 10, 0.01, 1, 3); err == nil {
		t.Error("impossible construction did not fail")
	}
}
