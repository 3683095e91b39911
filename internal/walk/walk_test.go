package walk

import (
	"math"
	"math/big"
	"testing"

	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

func TestTailProbabilityMatchesGaussian(t *testing.T) {
	r := rng.New(3)
	// P[S_n >= s*sqrt(n)] -> Phi-bar(s); for s=1: ~0.159, s=2: ~0.0228.
	cases := []struct{ s, want, tol float64 }{
		{0, 0.5, 0.03},
		{1, 0.159, 0.02},
		{2, 0.0228, 0.01},
	}
	for _, c := range cases {
		p, err := TailProbability(r, 400, c.s, 20000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-c.want) > c.tol {
			t.Errorf("s=%v: p=%v, want ~%v", c.s, p, c.want)
		}
	}
}

// exactTail returns P[S_steps >= s·√steps] for the simple ±1 walk:
// S = 2·Bin(steps, ½) − steps, summed exactly over the binomial tail.
func exactTail(steps int, s float64) float64 {
	threshold := s * math.Sqrt(float64(steps))
	hits := new(big.Int)
	for heads := 0; heads <= steps; heads++ {
		if float64(2*heads-steps) >= threshold {
			hits.Add(hits, new(big.Int).Binomial(int64(steps), int64(heads)))
		}
	}
	p, _ := new(big.Rat).SetFrac(hits, new(big.Int).Lsh(big.NewInt(1), uint(steps))).Float64()
	return p
}

// TestTailProbabilityExact checks E7's estimates against the exact
// binomial tail: at E7's full budget (400 steps, 60,000 trials per point,
// the points drawn in sequence from one stream as FitTail draws them),
// every point at seeds 1–8 lies within 4.5 standard errors of it.
func TestTailProbabilityExact(t *testing.T) {
	const steps, trials = 400, 60000
	ss := []float64{0.5, 1, 1.5, 2, 2.5, 3}
	// The exact tails, rounded, pin exactTail itself.
	want := []float64{0.32638, 0.17106, 0.073483, 0.02552, 0.0070921, 0.0015645}
	exact := make([]float64, len(ss))
	for i, s := range ss {
		exact[i] = exactTail(steps, s)
		if math.Abs(exact[i]-want[i]) > 5e-5*want[i] {
			t.Fatalf("s=%v: exact tail %v, want %v", s, exact[i], want[i])
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		fit, err := FitTail(rng.New(seed), steps, ss, trials)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range exact {
			z := (fit.P[i] - p) / math.Sqrt(p*(1-p)/trials)
			if math.Abs(z) >= 4.5 {
				t.Errorf("seed %d, s=%v: estimate %v, exact %v, z = %.2f", seed, ss[i], fit.P[i], p, z)
			}
		}
	}
}

func TestTailProbabilityErrors(t *testing.T) {
	r := rng.New(4)
	if _, err := TailProbability(r, 0, 1, 10); err == nil {
		t.Error("steps=0 not rejected")
	}
	if _, err := TailProbability(r, 10, 1, 0); err == nil {
		t.Error("trials=0 not rejected")
	}
}

func TestFitTailTheorem3(t *testing.T) {
	// Theorem 3: P[S_n >= s sqrt(n)] <= c e^{-beta s^2}. The Gaussian limit
	// has beta = 1/2; the fit should find beta in a band around it.
	r := rng.New(5)
	fit, err := FitTail(r, 256, []float64{0.5, 1, 1.5, 2, 2.5}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Beta < 0.3 || fit.Beta > 0.8 {
		t.Errorf("beta = %v, want ~0.5", fit.Beta)
	}
	if fit.C <= 0 || fit.C > 2 {
		t.Errorf("c = %v", fit.C)
	}
	if fit.R2 < 0.95 {
		t.Errorf("R2 = %v", fit.R2)
	}
	if len(fit.S) != 5 || len(fit.P) != 5 {
		t.Error("sample points missing")
	}
	// And the bound itself must hold with a modest constant at each point.
	for i, s := range fit.S {
		bound := 1.2 * math.Exp(-fit.Beta*s*s)
		if fit.P[i] > bound*1.5 {
			t.Errorf("s=%v: p=%v violates fitted bound %v", s, fit.P[i], bound)
		}
	}
}

func TestFitTailErrors(t *testing.T) {
	r := rng.New(6)
	if _, err := FitTail(r, 100, []float64{1}, 100); err == nil {
		t.Error("single s not rejected")
	}
	// Impossibly deep tails: all zero probabilities.
	if _, err := FitTail(r, 100, []float64{50, 60}, 10); err == nil {
		t.Error("all-zero tail points not rejected")
	}
}

func TestNewDominating(t *testing.T) {
	if _, err := NewDominating(1); err == nil {
		t.Error("n=1 not rejected")
	}
	d, err := NewDominating(8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.LogN-math.Log(8)) > 1e-15 {
		t.Errorf("LogN = %v", d.LogN)
	}
}

func TestDominatingSteps(t *testing.T) {
	d, err := NewDominating(8)
	if err != nil {
		t.Fatal(err)
	}
	logN := math.Log(8)
	r := rng.New(7)
	plus, minus := 0, 0
	for i := 0; i < 10000; i++ {
		s := d.Step(r)
		switch {
		case math.Abs(s-logN) < 1e-12:
			plus++
		case math.Abs(s+1.5*logN) < 1e-12:
			minus++
		default:
			t.Fatalf("unexpected increment %v", s)
		}
	}
	ratio := float64(plus) / float64(plus+minus)
	if math.Abs(ratio-0.5) > 0.02 {
		t.Errorf("step ratio %v, want ~0.5", ratio)
	}
}

func TestDominatingSampleDriftsDown(t *testing.T) {
	d, err := NewDominating(16)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	const k, trials = 200, 500
	ends := make([]float64, trials)
	for i := range ends {
		path := d.Sample(r, k)
		if len(path) != k+1 {
			t.Fatal("wrong path length")
		}
		ends[i] = path[k]
	}
	wantMean := float64(k) * -d.LogN / 4 // the drift −(log n)/4 per step
	gotMean := stats.Mean(ends)
	if math.Abs(gotMean-wantMean) > math.Abs(wantMean)*0.15 {
		t.Errorf("endpoint mean %v, want ~%v", gotMean, wantMean)
	}
}

func TestLastTimeAbove(t *testing.T) {
	path := []float64{0, 1, -3, 0.5, -4, -5}
	if got := LastTimeAbove(path, -2); got != 3 {
		t.Errorf("LastTimeAbove = %d, want 3", got)
	}
	if got := LastTimeAbove([]float64{-3, -4}, -2); got != -1 {
		t.Errorf("never-above should be -1, got %d", got)
	}
}

func TestHittingQuantileIsSmallConstant(t *testing.T) {
	// The paper's point: there is a constant t0 (independent of n) with
	// P[forall T > t0: W~_T <= -2] > 1 - 1/e. The (1-1/e)-quantile of the
	// last-time-above--2 should be a small number of epochs and should not
	// grow with n.
	r := rng.New(9)
	q16, err := HittingQuantile(r, 16, -2, 1-1/math.E, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	q1024, err := HittingQuantile(r, 1024, -2, 1-1/math.E, 2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if q16 > 50 {
		t.Errorf("n=16 hitting quantile %v epochs: not a small constant", q16)
	}
	if q1024 > q16 {
		t.Errorf("hitting quantile grew with n: %v -> %v", q16, q1024)
	}
}

func TestHittingQuantileErrors(t *testing.T) {
	r := rng.New(10)
	if _, err := HittingQuantile(r, 1, -2, 0.5, 10, 10); err == nil {
		t.Error("n=1 not rejected")
	}
}
