package stats

import (
	"math"
	"slices"
	"testing"
)

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{3.2, -1.5, 0.0, 7.75, 2.25, -4.5, 9.125}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != int64(len(xs)) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if got, want := w.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got, want := w.Variance(), Variance(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got, want := w.Min(), slices.Min(xs); got != want {
		t.Errorf("Min = %v, want %v", got, want)
	}
	if got, want := w.Max(), slices.Max(xs); got != want {
		t.Errorf("Max = %v, want %v", got, want)
	}
	_, ci := MeanCI95(xs)
	if math.Abs(w.CI95()-ci) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", w.CI95(), ci)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) {
		t.Error("empty accumulator should report NaN moments")
	}
	if w.Variance() != 0 || w.CI95() != 0 {
		t.Error("empty accumulator should report zero spread")
	}
	w.Add(4.5)
	if w.Mean() != 4.5 || w.Min() != 4.5 || w.Max() != 4.5 {
		t.Error("single observation should pin mean/min/max")
	}
	if w.Variance() != 0 {
		t.Error("single observation variance should be 0")
	}
}
