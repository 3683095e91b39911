package gossip

import (
	"math"
	"testing"
	"testing/quick"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

func TestStateBasics(t *testing.T) {
	s := NewState([]float64{1, 2, 3})
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-2) > 1e-15 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if math.Abs(s.Sum()-6) > 1e-12 {
		t.Errorf("Sum = %v", s.Sum())
	}
	want := (1.0 + 0 + 1.0) / 3
	if math.Abs(s.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), want)
	}
	if s.Get(0) != 1 || s.Get(2) != 3 {
		t.Error("Get round trip failed")
	}
}

func TestStateSetUpdatesMoments(t *testing.T) {
	s := NewState([]float64{1, 2, 3})
	s.Set(0, 5)
	if math.Abs(s.Mean()-10.0/3) > 1e-12 {
		t.Errorf("Mean after Set = %v", s.Mean())
	}
	vals := s.Values()
	if vals[0] != 5 || vals[1] != 2 {
		t.Errorf("Values = %v", vals)
	}
	// Compare incremental variance against recomputation.
	direct := directVariance(vals)
	if math.Abs(s.Variance()-direct) > 1e-12 {
		t.Errorf("incremental variance %v vs direct %v", s.Variance(), direct)
	}
}

func directVariance(xs []float64) float64 {
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(len(xs))
	s := 0.0
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return s / float64(len(xs))
}

func TestStateValuesIsCopy(t *testing.T) {
	s := NewState([]float64{1, 2})
	v := s.Values()
	v[0] = 99
	if s.Get(0) != 1 {
		t.Error("Values aliased internal storage")
	}
}

func TestStateEmpty(t *testing.T) {
	s := NewState(nil)
	if !math.IsNaN(s.Mean()) {
		t.Error("empty mean should be NaN")
	}
	if s.Variance() != 0 || s.Sum() != 0 {
		t.Error("empty moments should be 0")
	}
}

func TestStateNoCancellationAtLargeOffset(t *testing.T) {
	// Values clustered around 1e9: centering must keep variance accurate.
	base := 1e9
	s := NewState([]float64{base + 1, base - 1})
	if math.Abs(s.Variance()-1) > 1e-9 {
		t.Errorf("variance %v, want 1", s.Variance())
	}
	// Converge the pair: variance must go to ~0, not garbage.
	s.Set(0, base)
	s.Set(1, base)
	if s.Variance() > 1e-12 {
		t.Errorf("converged variance %v, want ~0", s.Variance())
	}
}

func TestStateResyncBoundsDrift(t *testing.T) {
	s := NewState(make([]float64, 4))
	r := rng.New(1)
	for k := 0; k < 3*resyncInterval; k++ {
		s.Set(r.Intn(4), r.Float64())
	}
	if math.Abs(s.Variance()-directVariance(s.Values())) > 1e-9 {
		t.Errorf("drifted variance %v vs direct %v", s.Variance(), directVariance(s.Values()))
	}
}

func TestStateVarianceNeverNegative(t *testing.T) {
	s := NewState([]float64{2, 2, 2})
	if s.Variance() < 0 {
		t.Error("negative variance")
	}
	s.Set(0, 2) // no-op update
	if s.Variance() < 0 {
		t.Error("negative variance after no-op")
	}
}

func TestNewVanillaValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewVanilla(g, []float64{1}); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestVanillaTickAverages(t *testing.T) {
	g := graph.Path(2)
	v, err := NewVanilla(g, []float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	tickOne(v, 0)
	vals := v.Values()
	if vals[0] != 2 || vals[1] != 2 {
		t.Errorf("values after tick = %v", vals)
	}
	if v.Variance() > 1e-15 {
		t.Errorf("variance after convergence = %v", v.Variance())
	}
}

func TestVanillaConvergesOnComplete(t *testing.T) {
	g := graph.Complete(16)
	r := rng.New(2)
	x0 := UniformRandom(r, 16)
	v, err := NewVanilla(g, x0)
	if err != nil {
		t.Fatal(err)
	}
	mean0 := v.Mean()
	eng, err := sim.NewEngine(g, v, sim.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10)
	if v.Variance() > 1e-10*directVariance(x0) {
		t.Errorf("variance did not converge: %v", v.Variance())
	}
	if math.Abs(v.Mean()-mean0) > 1e-9 {
		t.Errorf("mean drifted: %v -> %v", mean0, v.Mean())
	}
}

func TestConvexAlphaValidation(t *testing.T) {
	g := graph.Path(2)
	for _, alpha := range []float64{-0.1, 1.1} {
		if _, err := NewConvex(g, []float64{0, 1}, alpha); err == nil {
			t.Errorf("alpha %v not rejected", alpha)
		}
	}
	if _, err := NewConvex(g, []float64{0}, 0.5); err == nil {
		t.Error("length mismatch not rejected")
	}
}

func TestConvexHalfEqualsVanilla(t *testing.T) {
	g := graph.Cycle(5)
	x0 := []float64{5, -1, 2, 0, 3}
	v, err := NewVanilla(g, x0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConvex(g, x0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ticks := []graph.EdgeID{0, 3, 2, 2, 4, 1}
	for _, e := range ticks {
		tickOne(v, e)
		tickOne(c, e)
	}
	va, cb := v.Values(), c.Values()
	for i := range va {
		if math.Abs(va[i]-cb[i]) > 1e-12 {
			t.Fatalf("alpha=1/2 diverges from vanilla at node %d: %v vs %v", i, va[i], cb[i])
		}
	}
}

func TestConvexIdentityAlphaOne(t *testing.T) {
	g := graph.Path(2)
	c, err := NewConvex(g, []float64{1, 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tickOne(c, 0)
	vals := c.Values()
	if vals[0] != 1 || vals[1] != 9 {
		t.Errorf("alpha=1 changed values: %v", vals)
	}
}

func TestConvexSwapAlphaZero(t *testing.T) {
	g := graph.Path(2)
	c, err := NewConvex(g, []float64{1, 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tickOne(c, 0)
	vals := c.Values()
	if vals[0] != 9 || vals[1] != 1 {
		t.Errorf("alpha=0 should swap: %v", vals)
	}
}

// Property: every class-C update preserves the sum exactly and never
// increases the variance — the two facts Theorem 1 relies on.
func TestConvexInvariants(t *testing.T) {
	r := rng.New(7)
	g := graph.Complete(8)
	if err := quick.Check(func(alphaRaw uint8, seed uint16) bool {
		alpha := float64(alphaRaw) / 255
		x0 := UniformRandom(rng.New(uint64(seed)), 8)
		c, err := NewConvex(g, x0, alpha)
		if err != nil {
			return false
		}
		sum0 := c.Mean() * 8
		for k := 0; k < 50; k++ {
			before := c.Variance()
			tickOne(c, graph.EdgeID(r.Intn(g.NumEdges())))
			if c.Variance() > before+1e-12 {
				return false // variance increased
			}
		}
		return math.Abs(c.Mean()*8-sum0) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPushSumValidation(t *testing.T) {
	g := graph.Path(2)
	if _, err := NewPushSum(g, []float64{1}, rng.New(1)); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := NewPushSum(g, []float64{1, 2}, nil); err == nil {
		t.Error("nil rng not rejected")
	}
}

func TestPushSumConservesMass(t *testing.T) {
	g := graph.Complete(10)
	r := rng.New(5)
	x0 := UniformRandom(r, 10)
	p, err := NewPushSum(g, x0, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	mass0, weight0 := p.TotalMass(), p.TotalWeight()
	tick := rng.New(6)
	for k := 0; k < 10000; k++ {
		tickOne(p, graph.EdgeID(tick.Intn(g.NumEdges())))
	}
	if math.Abs(p.TotalMass()-mass0) > 1e-9 {
		t.Errorf("mass drifted %v -> %v", mass0, p.TotalMass())
	}
	if math.Abs(p.TotalWeight()-weight0) > 1e-9 {
		t.Errorf("weight drifted %v -> %v", weight0, p.TotalWeight())
	}
}

func TestPushSumConverges(t *testing.T) {
	g := graph.Complete(12)
	r := rng.New(8)
	x0 := UniformRandom(r, 12)
	truth := 0.0
	for _, v := range x0 {
		truth += v
	}
	truth /= 12
	p, err := NewPushSum(g, x0, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(g, p, sim.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20)
	for i, est := range p.Values() {
		if math.Abs(est-truth) > 1e-6 {
			t.Fatalf("node %d estimate %v, want %v", i, est, truth)
		}
	}
}

func TestCutIndicatorMeanZero(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {3, 9}, {1, 7}} {
		_, p, err := graph.Dumbbell(dims[0], dims[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		x := CutIndicator(p)
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("dumbbell %v: cut indicator sum %v, want 0", dims, sum)
		}
		// +1 on side 1.
		if x[0] != 1 {
			t.Errorf("side-1 value %v", x[0])
		}
	}
}

func TestSpike(t *testing.T) {
	x, err := Spike(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x[2] != 1 || x[0] != 0 || len(x) != 5 {
		t.Errorf("spike = %v", x)
	}
	if _, err := Spike(5, 5); err == nil {
		t.Error("out-of-range spike not rejected")
	}
}

func TestUniformRandomRange(t *testing.T) {
	x := UniformRandom(rng.New(3), 1000)
	for _, v := range x {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1,1)", v)
		}
	}
}

func TestGaussianRandomLength(t *testing.T) {
	if len(GaussianRandom(rng.New(4), 17)) != 17 {
		t.Error("wrong length")
	}
}

func TestLinear(t *testing.T) {
	x := Linear(5)
	if x[0] != 0 || x[4] != 1 || x[2] != 0.5 {
		t.Errorf("linear = %v", x)
	}
	if got := Linear(1); got[0] != 0 {
		t.Errorf("Linear(1) = %v", got)
	}
}

func TestAlgorithmInterfaceCompliance(t *testing.T) {
	g := graph.Path(2)
	x0 := []float64{0, 1}
	var algs []Algorithm
	v, err := NewVanilla(g, x0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConvex(g, x0, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPushSum(g, x0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	algs = append(algs, v, c, p)
	for _, a := range algs {
		if a.Name() == "" {
			t.Errorf("%T: empty name", a)
		}
		if len(a.Values()) != 2 {
			t.Errorf("%T: wrong value length", a)
		}
		var _ sim.TickKernel = a // every Algorithm is an engine kernel
	}
}
