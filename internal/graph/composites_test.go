package graph

import "testing"

func TestRingOfCliques(t *testing.T) {
	g, part, err := RingOfCliques(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 {
		t.Fatalf("nodes = %d, want 20", g.NumNodes())
	}
	// 4 cliques of C(5,2)=10 edges + 4 joints of 2 bridges.
	if want := 4*10 + 4*2; g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	if !IsConnected(g) {
		t.Fatal("ring of cliques not connected")
	}
	if part.Size1() != 10 || part.Size2() != 10 {
		t.Fatalf("partition sizes %d/%d, want 10/10", part.Size1(), part.Size2())
	}
	// The two contiguous arcs meet at two joints: cut = 2*bridges.
	if part.CutSize() != 4 {
		t.Fatalf("cut size = %d, want 4", part.CutSize())
	}
	if !sidesInternallyConnected(part) {
		t.Fatal("ring-of-cliques sides not internally connected")
	}
}

func TestRingOfCliquesSingletonBlocks(t *testing.T) {
	// m=1 degenerates to the cycle C_blocks.
	g, _, err := RingOfCliques(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || g.NumEdges() != 6 {
		t.Fatalf("got %d nodes / %d edges, want 6/6", g.NumNodes(), g.NumEdges())
	}
	for u := 0; u < 6; u++ {
		if g.Degree(NodeID(u)) != 2 {
			t.Fatalf("node %d degree %d, want 2", u, g.Degree(NodeID(u)))
		}
	}
}

func TestRingOfCliquesValidation(t *testing.T) {
	cases := [][3]int{{2, 4, 1}, {3, 0, 1}, {3, 4, 0}, {3, 4, 5}}
	for _, c := range cases {
		if _, _, err := RingOfCliques(c[0], c[1], c[2]); err == nil {
			t.Errorf("RingOfCliques(%d,%d,%d): expected error", c[0], c[1], c[2])
		}
	}
}

func TestTorusDumbbell(t *testing.T) {
	g, part, err := TorusDumbbell(200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d, want 200", g.NumNodes())
	}
	// Two 100-node tori at 2 edges per node, plus the cut.
	if want := 2*100 + 2*100 + 4; g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	if !IsConnected(g) {
		t.Fatal("torus dumbbell not connected")
	}
	if part.Size1() != 100 || part.Size2() != 100 {
		t.Fatalf("partition sizes %d/%d, want 100/100", part.Size1(), part.Size2())
	}
	if part.CutSize() != 4 {
		t.Fatalf("cut size = %d, want 4", part.CutSize())
	}
	if !sidesInternallyConnected(part) {
		t.Fatal("torus-dumbbell sides not internally connected")
	}
	// Degree is bounded: 4 inside the tori, at most 5 on the rims (one cut
	// edge per rim node by construction).
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(NodeID(u)); d < 4 || d > 5 {
			t.Fatalf("node %d has degree %d, want 4 or 5", u, d)
		}
	}
}

func TestTorusDumbbellOddSizes(t *testing.T) {
	// 45/45 split: factors as 5x9.
	g, part, err := TorusDumbbell(90, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) || part.CutSize() != 1 {
		t.Fatalf("connected=%v cut=%d", IsConnected(g), part.CutSize())
	}
}

func TestTorusDumbbellValidation(t *testing.T) {
	for _, tc := range []struct {
		name        string
		n, cutEdges int
	}{
		{"too small", 10, 1},
		{"zero cut", 200, 0},
		{"cut too wide", 200, 101},
		{"prime half", 2 * 101, 1}, // 101 has no rows >= 3 factorisation
	} {
		if _, _, err := TorusDumbbell(tc.n, tc.cutEdges); err == nil {
			t.Errorf("%s: TorusDumbbell(%d, %d) accepted", tc.name, tc.n, tc.cutEdges)
		}
	}
}
