package graph

import (
	"math"
	"testing"

	"sparsecut/internal/rng"
)

func mustDumbbell(t *testing.T, n1, n2, cut int) (*Graph, *Partition) {
	t.Helper()
	g, p, err := Dumbbell(n1, n2, cut)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestPartitionByPrefix(t *testing.T) {
	g := Path(6)
	p, err := PartitionByPrefix(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size1() != 3 || p.Size2() != 3 {
		t.Errorf("sizes %d/%d", p.Size1(), p.Size2())
	}
	if p.CutSize() != 1 {
		t.Errorf("cut size %d, want 1", p.CutSize())
	}
	if p.MinSide() != 3 {
		t.Errorf("MinSide %d", p.MinSide())
	}
	e := g.Edge(p.CutEdges()[0])
	if e != NewEdge(2, 3) {
		t.Errorf("cut edge %v, want 2-3", e)
	}
}

func TestPartitionByPrefixErrors(t *testing.T) {
	g := Path(4)
	for _, n1 := range []int{0, 4, -1, 7} {
		if _, err := PartitionByPrefix(g, n1); err == nil {
			t.Errorf("prefix %d not rejected", n1)
		}
	}
}

func TestNewPartitionValidation(t *testing.T) {
	g := Path(3)
	if _, err := NewPartition(g, []Side{Side1, Side1}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := NewPartition(g, []Side{Side1, Side1, Side1}); err == nil {
		t.Error("one-sided partition not rejected")
	}
	if _, err := NewPartition(g, []Side{Side1, 7, Side2}); err == nil {
		t.Error("invalid side not rejected")
	}
}

func TestPartitionIsImmutableCopy(t *testing.T) {
	g := Path(3)
	side := []Side{Side1, Side2, Side2}
	p, err := NewPartition(g, side)
	if err != nil {
		t.Fatal(err)
	}
	side[0] = Side2 // mutate caller's slice
	if p.SideOf(0) != Side1 {
		t.Error("partition aliased the caller's slice")
	}
}

func TestDumbbellStructure(t *testing.T) {
	g, p := mustDumbbell(t, 4, 6, 1)
	if g.NumNodes() != 10 {
		t.Errorf("%d nodes", g.NumNodes())
	}
	want := 4*3/2 + 6*5/2 + 1
	if g.NumEdges() != want {
		t.Errorf("%d edges, want %d", g.NumEdges(), want)
	}
	if p.CutSize() != 1 {
		t.Errorf("cut %d", p.CutSize())
	}
	// The designated cut edge joins node n1-1 to node n1.
	e := g.Edge(p.CutEdges()[0])
	if e != NewEdge(3, 4) {
		t.Errorf("cut edge %v, want 3-4", e)
	}
	if !sidesInternallyConnected(p) {
		t.Error("dumbbell sides should be connected")
	}
	if !IsConnected(g) {
		t.Error("dumbbell should be connected")
	}
}

func TestDumbbellMultiCut(t *testing.T) {
	g, p := mustDumbbell(t, 8, 8, 5)
	if p.CutSize() != 5 {
		t.Errorf("cut size %d, want 5", p.CutSize())
	}
	// Cut edges must all actually cross.
	for _, id := range p.CutEdges() {
		if !p.IsCutEdge(id) {
			t.Error("non-crossing edge in cut list")
		}
		e := g.Edge(id)
		if (e.U < 8) == (e.V < 8) {
			t.Errorf("edge %v does not cross", e)
		}
	}
}

func TestDumbbellErrors(t *testing.T) {
	if _, _, err := Dumbbell(0, 5, 1); err == nil {
		t.Error("n1=0 not rejected")
	}
	if _, _, err := Dumbbell(3, 5, 0); err == nil {
		t.Error("cut=0 not rejected")
	}
	if _, _, err := Dumbbell(3, 5, 4); err == nil {
		t.Error("cut > min side not rejected")
	}
}

func TestSymmetricDumbbell(t *testing.T) {
	g, p, err := SymmetricDumbbell(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size1() != 4 || p.Size2() != 5 {
		t.Errorf("sizes %d/%d", p.Size1(), p.Size2())
	}
	if g.NumNodes() != 9 {
		t.Errorf("%d nodes", g.NumNodes())
	}
	if _, _, err := SymmetricDumbbell(1, 1); err == nil {
		t.Error("n=1 not rejected")
	}
}

func TestConductanceDumbbell(t *testing.T) {
	_, p := mustDumbbell(t, 5, 5, 1)
	// vol(V1) = vol(V2) = 5 nodes: 4 internal each = 20, plus 1 cut
	// endpoint = 21.
	want := 1.0 / 21.0
	if got := p.Conductance(); math.Abs(got-want) > 1e-12 {
		t.Errorf("conductance %v, want %v", got, want)
	}
}

func TestTheoremOneBound(t *testing.T) {
	_, p := mustDumbbell(t, 6, 10, 2)
	if got := p.TheoremOneBound(); got != 3 {
		t.Errorf("bound %v, want 6/2 = 3", got)
	}
}

func TestSubgraph(t *testing.T) {
	g, p := mustDumbbell(t, 4, 5, 1)
	sub1, map1 := p.Subgraph(Side1)
	if sub1.NumNodes() != 4 || sub1.NumEdges() != 6 {
		t.Errorf("side1 subgraph %d nodes %d edges", sub1.NumNodes(), sub1.NumEdges())
	}
	sub2, map2 := p.Subgraph(Side2)
	if sub2.NumNodes() != 5 || sub2.NumEdges() != 10 {
		t.Errorf("side2 subgraph %d nodes %d edges", sub2.NumNodes(), sub2.NumEdges())
	}
	// Mappings must point back to the right sides.
	for _, parent := range map1 {
		if p.SideOf(parent) != Side1 {
			t.Error("side1 mapping crosses sides")
		}
	}
	for _, parent := range map2 {
		if p.SideOf(parent) != Side2 {
			t.Error("side2 mapping crosses sides")
		}
	}
	_ = g
}

func TestJoin(t *testing.T) {
	g1, g2 := Cycle(4), Path(3)
	g, p, err := Join(g1, g2, [][2]NodeID{{0, 0}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 {
		t.Errorf("%d nodes", g.NumNodes())
	}
	if g.NumEdges() != 4+2+2 {
		t.Errorf("%d edges", g.NumEdges())
	}
	if p.CutSize() != 2 {
		t.Errorf("cut %d", p.CutSize())
	}
	if !IsConnected(g) {
		t.Error("join disconnected")
	}
}

func TestJoinErrors(t *testing.T) {
	g1, g2 := Path(2), Path(2)
	if _, _, err := Join(g1, g2, nil); err == nil {
		t.Error("empty cut not rejected")
	}
	if _, _, err := Join(g1, g2, [][2]NodeID{{5, 0}}); err == nil {
		t.Error("bad g1 endpoint not rejected")
	}
	if _, _, err := Join(g1, g2, [][2]NodeID{{0, 5}}); err == nil {
		t.Error("bad g2 endpoint not rejected")
	}
}

func TestPlantedPartition(t *testing.T) {
	r := rng.New(11)
	g, p, err := PlantedPartition(r, 20, 30, 0.5, 0.02, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 {
		t.Errorf("%d nodes", g.NumNodes())
	}
	if p.Size1() != 20 {
		t.Errorf("side1 %d", p.Size1())
	}
	if p.CutSize() < 1 {
		t.Error("empty cut")
	}
	if !sidesInternallyConnected(p) {
		t.Error("sides not internally connected")
	}
	// Sparse cut: far fewer cross edges than internal ones.
	internal := g.NumEdges() - p.CutSize()
	if p.CutSize() >= internal {
		t.Errorf("cut %d not sparse vs %d internal", p.CutSize(), internal)
	}
}

func TestPlantedPartitionErrors(t *testing.T) {
	r := rng.New(12)
	if _, _, err := PlantedPartition(r, 0, 5, 0.5, 0.1, 5); err == nil {
		t.Error("n1=0 not rejected")
	}
	if _, _, err := PlantedPartition(r, 5, 5, 1.5, 0.1, 5); err == nil {
		t.Error("pIn>1 not rejected")
	}
	if _, _, err := PlantedPartition(r, 5, 5, 0.9, 0.0, 5); err == nil {
		t.Error("pOut=0 should fail (no cut possible)")
	}
}

func TestSideString(t *testing.T) {
	if Side1.String() != "V1" || Side2.String() != "V2" {
		t.Error("side names wrong")
	}
}

func TestPartitionString(t *testing.T) {
	_, p := mustDumbbell(t, 3, 4, 1)
	if p.String() == "" {
		t.Error("empty partition string")
	}
}
