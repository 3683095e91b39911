package cut

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/spectral"
)

func TestSweepCutRecoversPlantedCut(t *testing.T) {
	g, planted, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Score = +1 on side2, -1 on side1 makes the sweep trivially correct.
	score := make([]float64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		if planted.SideOf(graph.NodeID(u)) == graph.Side2 {
			score[u] = 1
		} else {
			score[u] = -1
		}
	}
	p, err := SweepCut(g, score)
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != 1 {
		t.Errorf("cut size %d, want 1", p.CutSize())
	}
	if p.MinSide() != 8 {
		t.Errorf("min side %d, want 8", p.MinSide())
	}
}

func TestSweepCutErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := SweepCut(g, []float64{1}); err == nil {
		t.Error("score length mismatch not rejected")
	}
	single := graph.NewBuilder(1).MustBuild()
	if _, err := SweepCut(single, []float64{0}); !errors.Is(err, ErrNoCut) {
		t.Errorf("err = %v, want ErrNoCut", err)
	}
}

func TestSpectralBisectionDumbbell(t *testing.T) {
	g, planted, err := graph.Dumbbell(10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := SpectralBisection(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != 1 {
		t.Fatalf("spectral bisection found cut of size %d, want 1", p.CutSize())
	}
	// Must match the planted partition up to side swap.
	match, swapped := 0, 0
	for u := 0; u < g.NumNodes(); u++ {
		if p.SideOf(graph.NodeID(u)) == planted.SideOf(graph.NodeID(u)) {
			match++
		} else {
			swapped++
		}
	}
	if match != g.NumNodes() && swapped != g.NumNodes() {
		t.Errorf("partition disagrees with planted cut: %d match / %d swapped", match, swapped)
	}
}

func TestSpectralBisectionAsymmetricDumbbell(t *testing.T) {
	g, _, err := graph.Dumbbell(6, 18, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := SpectralBisection(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != 1 {
		t.Errorf("cut size %d, want 1", p.CutSize())
	}
	if p.MinSide() != 6 {
		t.Errorf("min side %d, want 6", p.MinSide())
	}
}

func TestSpectralBisectionMatchesBruteForce(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 5; trial++ {
		g, _, err := graph.PlantedPartition(r, 6, 7, 0.9, 0.05, 100)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForceMinConductance(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SpectralBisection(g, spectral.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Spectral bisection is a heuristic; require it within 1.5x of optimal
		// on these easy planted instances.
		if got.Conductance() > 1.5*want.Conductance()+1e-12 {
			t.Errorf("trial %d: spectral phi %v vs optimal %v", trial, got.Conductance(), want.Conductance())
		}
	}
}

func TestSpectralBisectionRejectsDisconnected(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	if _, err := SpectralBisection(g, spectral.Options{}); err == nil {
		t.Error("disconnected graph not rejected")
	}
}

// BruteForceMinConductance exhaustively searches all 2^(n-1)-1 proper
// two-sided partitions and returns one with minimum conductance. It is the
// test oracle for SpectralBisection and refuses graphs with more than
// maxNodes (default cap 22) nodes.
func BruteForceMinConductance(g *graph.Graph) (*graph.Partition, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, ErrNoCut
	}
	const maxNodes = 22
	if n > maxNodes {
		return nil, fmt.Errorf("cut: brute force limited to %d nodes, got %d", maxNodes, n)
	}
	var best *graph.Partition
	bestPhi := math.Inf(1)
	side := make([]graph.Side, n)
	// Node 0 stays on Side1 to halve the search space.
	for mask := uint32(0); mask < 1<<(n-1); mask++ {
		for u := 1; u < n; u++ {
			if mask&(1<<(u-1)) != 0 {
				side[u] = graph.Side2
			} else {
				side[u] = graph.Side1
			}
		}
		if mask == 0 {
			continue // one-sided
		}
		p, err := graph.NewPartition(g, side)
		if err != nil {
			continue
		}
		if phi := p.Conductance(); phi < bestPhi {
			bestPhi = phi
			best = p
		}
	}
	if best == nil {
		return nil, ErrNoCut
	}
	return best, nil
}

func TestBruteForceMinConductanceDumbbell(t *testing.T) {
	g, _, err := graph.Dumbbell(5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BruteForceMinConductance(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != 1 {
		t.Errorf("optimal cut size %d, want 1", p.CutSize())
	}
	want := 1.0 / 21.0
	if math.Abs(p.Conductance()-want) > 1e-12 {
		t.Errorf("optimal conductance %v, want %v", p.Conductance(), want)
	}
}

func TestBruteForceRefusesLargeGraphs(t *testing.T) {
	if _, err := BruteForceMinConductance(graph.Complete(30)); err == nil {
		t.Error("large graph not refused")
	}
}

func TestBruteForceTinyGraphs(t *testing.T) {
	if _, err := BruteForceMinConductance(graph.NewBuilder(1).MustBuild()); !errors.Is(err, ErrNoCut) {
		t.Error("n=1 should yield ErrNoCut")
	}
	p, err := BruteForceMinConductance(graph.Path(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.CutSize() != 1 {
		t.Error("P_2 optimal cut should be the single edge")
	}
}

func TestDesignatedCutEdge(t *testing.T) {
	g, p, err := graph.Dumbbell(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := DesignatedCutEdge(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsCutEdge(ec) {
		t.Error("designated edge does not cross the cut")
	}
	if ec != p.CutEdges()[0] {
		t.Error("designated edge is not the lowest-ID cut edge")
	}
	_ = g
}

func TestDetectPipeline(t *testing.T) {
	g, _, err := graph.Dumbbell(9, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, ec, err := Detect(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsCutEdge(ec) {
		t.Error("detected ec does not cross detected cut")
	}
	if p.CutSize() != 1 {
		t.Errorf("detected cut size %d", p.CutSize())
	}
}

func TestDetectOnWalledRGG(t *testing.T) {
	r := rng.New(31)
	g, planted, err := graph.WalledRGG(r, 60, 0.35, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Detect(g, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Detection should find a cut no worse than ~2x the planted one.
	if p.Conductance() > 2*planted.Conductance()+1e-12 {
		t.Errorf("detected phi %v vs planted %v", p.Conductance(), planted.Conductance())
	}
}
