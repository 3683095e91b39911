package spectral

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Dot(x, x) != 25 {
		t.Error("Dot")
	}
	if Norm2(x) != 5 {
		t.Error("Norm2")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy -> %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Errorf("Scale -> %v", y)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0, 3, 4}
	n := Normalize(x)
	if n != 5 {
		t.Errorf("returned norm %v", n)
	}
	if math.Abs(Norm2(x)-1) > 1e-15 {
		t.Error("not unit norm")
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 {
		t.Error("zero vector norm")
	}
}

func TestCenterMean(t *testing.T) {
	x := []float64{1, 2, 3, 6}
	m := CenterMean(x)
	if m != 3 {
		t.Errorf("mean %v", m)
	}
	if math.Abs(Mean(x)) > 1e-15 {
		t.Error("not centered")
	}
}

func TestVariance(t *testing.T) {
	if v := Variance([]float64{1, 1, 1}); v != 0 {
		t.Errorf("constant variance %v", v)
	}
	if v := Variance([]float64{1, -1}); v != 1 {
		t.Errorf("variance %v, want 1", v)
	}
	if v := Variance(nil); v != 0 {
		t.Errorf("empty variance %v", v)
	}
}

func TestLaplacianApply(t *testing.T) {
	g := graph.Path(3) // L = [[1,-1,0],[-1,2,-1],[0,-1,1]]
	l := Laplacian{G: g}
	src := []float64{1, 2, 4}
	dst := make([]float64, 3)
	l.Apply(dst, src)
	want := []float64{-1, -1, 2}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-15 {
			t.Fatalf("L*x = %v, want %v", dst, want)
		}
	}
}

func TestLaplacianAnnihilatesConstants(t *testing.T) {
	g := graph.Complete(6)
	l := Laplacian{G: g}
	src := []float64{2, 2, 2, 2, 2, 2}
	dst := make([]float64, 6)
	l.Apply(dst, src)
	for _, v := range dst {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("L*1 != 0: %v", dst)
		}
	}
}

func TestAdjacencyApply(t *testing.T) {
	g := graph.Cycle(4)
	a := Adjacency{G: g}
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	a.Apply(dst, src)
	// node 0 neighbours 1 and 3 -> 6; node 1 neighbours 0,2 -> 4; etc.
	want := []float64{6, 4, 6, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("A*x = %v, want %v", dst, want)
		}
	}
}

func TestShifted(t *testing.T) {
	g := graph.Path(2)
	s := Shifted{C: 3, Op: Laplacian{G: g}}
	src := []float64{1, 0}
	dst := make([]float64, 2)
	s.Apply(dst, src)
	// L*src = [1,-1]; 3*src - L*src = [2,1]
	if dst[0] != 2 || dst[1] != 1 {
		t.Fatalf("shifted = %v", dst)
	}
	if s.Dim() != 2 {
		t.Error("Dim")
	}
}

func TestLambda2KnownSpectra(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K_8", graph.Complete(8), 8},
		{"K_20", graph.Complete(20), 20},
		{"P_10", graph.Path(10), 4 * sq(math.Sin(math.Pi/20))},
		{"C_12", graph.Cycle(12), 2 * (1 - math.Cos(2*math.Pi/12))},
		{"star_9", graph.Star(9), 1},
		{"Q_4", hypercube(4), 2},
		{"K_3_3", completeBipartite(3, 3), 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, vec, err := Lambda2(c.g, Options{})
			if err != nil {
				t.Fatalf("Lambda2: %v (got %v)", err, got)
			}
			if math.Abs(got-c.want) > 1e-5*math.Max(1, c.want) {
				t.Errorf("lambda2 = %v, want %v", got, c.want)
			}
			// The Fiedler vector must be (near) orthogonal to ones and unit norm.
			if math.Abs(Mean(vec))*float64(len(vec)) > 1e-6 {
				t.Errorf("Fiedler vector not centered: mean*n = %v", Mean(vec)*float64(len(vec)))
			}
			if math.Abs(Norm2(vec)-1) > 1e-8 {
				t.Errorf("Fiedler vector norm %v", Norm2(vec))
			}
		})
	}
}

func sq(x float64) float64 { return x * x }

func TestLambdaMaxComplete(t *testing.T) {
	// K_n Laplacian eigenvalues: 0 and n (multiplicity n-1).
	got, err := LambdaMax(graph.Complete(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-6 {
		t.Errorf("lambda_max = %v, want 10", got)
	}
}

func TestLambda2DumbbellIsSmall(t *testing.T) {
	// A dumbbell has a sparse cut, so lambda2 must be far below the clique value.
	g, _, err := graph.Dumbbell(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	lam2, _, err := Lambda2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lam2 <= 0 || lam2 > 0.5 {
		t.Errorf("dumbbell lambda2 = %v, want small positive", lam2)
	}
}

func TestFiedlerVectorSeparatesDumbbell(t *testing.T) {
	g, part, err := graph.Dumbbell(12, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	v, err := FiedlerVector(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Signs of the Fiedler vector should align with the planted sides.
	agree, disagree := 0, 0
	for u := 0; u < g.NumNodes(); u++ {
		pos := v[u] > 0
		side1 := part.SideOf(graph.NodeID(u)) == graph.Side1
		if pos == side1 {
			agree++
		} else {
			disagree++
		}
	}
	if agree != g.NumNodes() && disagree != g.NumNodes() {
		t.Errorf("Fiedler signs split %d/%d, want clean separation", agree, disagree)
	}
}

func TestLambda2Disconnected(t *testing.T) {
	// Two disjoint edges: lambda2 restricted to 1-perp is 0.
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	lam2, _, err := Lambda2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lam2) > 1e-8 {
		t.Errorf("disconnected lambda2 = %v, want 0", lam2)
	}
}

func TestLambda2TooSmall(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	if _, _, err := Lambda2(g, Options{}); err == nil {
		t.Error("n=1 not rejected")
	}
}

func TestLambda2Edgeless(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	lam2, v, err := Lambda2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lam2 != 0 {
		t.Errorf("edgeless lambda2 = %v", lam2)
	}
	if len(v) != 3 {
		t.Error("missing witness vector")
	}
}

func TestPowerIterationErrors(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := PowerIteration(Laplacian{G: g}, [][]float64{{1, 0}}, Options{}); err == nil {
		t.Error("bad deflation dim not rejected")
	}
}

func TestPowerIterationNoConvergence(t *testing.T) {
	g := graph.Path(64)
	_, _, err := PowerIteration(Laplacian{G: g}, nil, Options{MaxIter: 2, Tol: 1e-15})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestTvanBoundComplete(t *testing.T) {
	tv, err := TvanBound(graph.Complete(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tv-6.0/16) > 1e-6 {
		t.Errorf("TvanBound(K_16) = %v, want %v", tv, 6.0/16)
	}
}

func TestTvanBoundShrinksWithCliqueSize(t *testing.T) {
	a, err := TvanBound(graph.Complete(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TvanBound(graph.Complete(32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("TvanBound should shrink with clique size: %v -> %v", a, b)
	}
}

func TestTvanBoundDisconnectedIsInf(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	tv, err := TvanBound(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tv, 1) {
		t.Errorf("disconnected TvanBound = %v, want +Inf", tv)
	}
}

func TestLambda2RandomRegularHasGap(t *testing.T) {
	// The union of three random Hamiltonian cycles on 64 nodes: a random
	// 6-regular multigraph, simple once the builder merges repeated edges.
	r := rng.New(5)
	const n = 64
	b := graph.NewBuilder(n)
	perm := make([]graph.NodeID, n)
	for range 3 {
		for i := range perm {
			j := r.Intn(i + 1)
			perm[i], perm[j] = perm[j], graph.NodeID(i)
		}
		for i := range perm {
			b.AddEdge(perm[i], perm[(i+1)%n])
		}
	}
	g := b.MustBuild()
	lam2, _, err := Lambda2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Random 6-regular graphs are expanders: lambda2 bounded away from 0.
	if lam2 < 0.5 {
		t.Errorf("random regular lambda2 = %v, expected expander gap", lam2)
	}
}

// Property: on every connected test graph, 0 < lambda2 <= lambda_max <= 2*maxdeg.
func TestSpectralOrderingProperty(t *testing.T) {
	r := rng.New(77)
	graphs := []*graph.Graph{
		graph.Complete(9), graph.Cycle(11), graph.Path(13), graph.Star(8),
		graph.Grid(3, 4), hypercube(3), lollipop(5, 3),
	}
	if g, _, err := graph.PlantedPartition(r, 12, 12, 0.3, 0.3, 50); err == nil {
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		lam2, _, err := Lambda2(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		lamMax, err := LambdaMax(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if lam2 <= 0 {
			t.Errorf("%s: lambda2 = %v, want > 0 for connected graph", g, lam2)
		}
		if lam2 > lamMax+1e-9 {
			t.Errorf("%s: lambda2 %v > lambdaMax %v", g, lam2, lamMax)
		}
		if lamMax > 2*float64(g.MaxDegree())+1e-9 {
			t.Errorf("%s: lambdaMax %v exceeds 2*maxdeg %d", g, lamMax, 2*g.MaxDegree())
		}
	}
}

// hypercube, completeBipartite and lollipop build the closed-form and
// slow-mixing fixtures of these tests: Q_d on 2^d nodes; K_{a,b} with
// nodes 0..a-1 on the left; a clique K_m with a path of tail more nodes
// hanging off node m-1.
func hypercube(d int) *graph.Graph {
	b := graph.NewBuilder(1 << d).SetName(fmt.Sprintf("hypercube(d=%d)", d))
	for u := range 1 << d {
		for bit := range d {
			if v := u ^ 1<<bit; u < v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.MustBuild()
}

func completeBipartite(a, c int) *graph.Graph {
	b := graph.NewBuilder(a + c).SetName(fmt.Sprintf("bipartite(%d,%d)", a, c))
	for u := range a {
		for v := a; v < a+c; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.MustBuild()
}

func lollipop(m, tail int) *graph.Graph {
	b := graph.NewBuilder(m + tail).SetName(fmt.Sprintf("lollipop(m=%d,tail=%d)", m, tail))
	for u := range m {
		for v := u + 1; v < m; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := m - 1; u < m+tail-1; u++ {
		b.AddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	return b.MustBuild()
}
