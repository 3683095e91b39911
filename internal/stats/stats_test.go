package stats

import (
	"math"
	"testing"

	"sparsecut/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"constant", []float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	for _, c := range []struct {
		q, want float64
	}{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", c.q, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile interpolation = %v, want 3", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty sample")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("expected error for q > 1")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("expected error for q < 0")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantileMonotone(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 31)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v, err := Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("quantiles not monotone: q=%v gives %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestMeanCI95(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	mean, hw := MeanCI95(xs)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v", mean)
	}
	// Half width should be ~1.96/sqrt(10000) = 0.0196.
	if math.Abs(hw-0.0196) > 0.002 {
		t.Errorf("half width = %v, want ~0.0196", hw)
	}
	if _, hw := MeanCI95([]float64{1}); hw != 0 {
		t.Errorf("CI of singleton should have zero width, got %v", hw)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2 intercept 1", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] - 7 + r.NormFloat64()
	}
	f, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 0.01 {
		t.Errorf("slope = %v, want ~3", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("expected too-few-points error")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("expected constant-x error")
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	// y = 5 x^1.7
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 * math.Pow(x, 1.7)
	}
	f, err := LogLogFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 1.7, 1e-9) {
		t.Errorf("exponent = %v, want 1.7", f.Slope)
	}
	if !almostEqual(math.Exp(f.Intercept), 5, 1e-9) {
		t.Errorf("prefactor = %v, want 5", math.Exp(f.Intercept))
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	if _, err := LogLogFit([]float64{1, 0}, []float64{1, 1}); err == nil {
		t.Error("expected error for non-positive x")
	}
	if _, err := LogLogFit([]float64{1, 2}, []float64{1, -1}); err == nil {
		t.Error("expected error for non-positive y")
	}
}

func TestSemiLogYFitExponential(t *testing.T) {
	// y = 2 e^{-0.5 x}
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 * math.Exp(-0.5*x)
	}
	f, err := SemiLogYFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, -0.5, 1e-9) {
		t.Errorf("rate = %v, want -0.5", f.Slope)
	}
}

func TestSemiLogYFitRejectsNonPositiveY(t *testing.T) {
	if _, err := SemiLogYFit([]float64{0, 1}, []float64{1, 0}); err == nil {
		t.Error("expected error for zero y")
	}
}

func TestKSDistance(t *testing.T) {
	// Identical samples: D = 0.
	a := []float64{3, 1, 2, 4}
	b := []float64{1, 2, 3, 4}
	if d := KSDistance(a, b); d != 0 {
		t.Errorf("identical samples: D = %v, want 0", d)
	}
	// Disjoint supports: D = 1.
	lo := []float64{1, 2, 3}
	hi := []float64{10, 11, 12}
	if d := KSDistance(lo, hi); d != 1 {
		t.Errorf("disjoint samples: D = %v, want 1", d)
	}
	// Hand-computed: a = {1, 3}, b = {2, 4} -> max CDF gap 1/2.
	if d := KSDistance([]float64{1, 3}, []float64{2, 4}); d != 0.5 {
		t.Errorf("interleaved samples: D = %v, want 0.5", d)
	}
}
