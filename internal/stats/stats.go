// Package stats provides the small set of descriptive statistics and
// least-squares fits the experiment harness needs: means, variances,
// quantiles, confidence intervals, and (log-log) linear fits
// used to extract empirical scaling exponents.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance.
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the square root of the unbiased sample variance.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns an error for an empty
// sample or a q outside [0, 1]. The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MeanCI95 returns the sample mean together with the half-width of a 95%
// normal-approximation confidence interval. For n < 2 the half-width is 0.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	const z = 1.96
	return mean, z * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Fit holds the result of an ordinary least-squares straight-line fit
// y ≈ Slope*x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination in [0,1] (NaN if y is constant)
}

// LinearFit fits y = a*x + b by least squares. It returns an error when the
// slice lengths differ, fewer than two points are supplied, or all x values
// coincide.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, errors.New("stats: need at least two points to fit a line")
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, errors.New("stats: all x values are identical")
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		f.R2 = math.NaN()
	} else {
		f.R2 = sxy * sxy / (sxx * syy)
	}
	return f, nil
}

// LogLogFit fits log(y) = slope*log(x) + intercept, i.e. the power law
// y ≈ e^intercept * x^slope. All inputs must be strictly positive.
func LogLogFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return Fit{}, fmt.Errorf("stats: log-log fit requires positive data, got (%v, %v) at %d", xs[i], ys[i], i)
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}

// SemiLogYFit fits log(y) = slope*x + intercept, i.e. y ≈ e^intercept *
// e^(slope*x): an exponential decay/growth fit. All y must be positive.
func SemiLogYFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d != %d", len(xs), len(ys))
	}
	ly := make([]float64, len(ys))
	for i := range ys {
		if ys[i] <= 0 {
			return Fit{}, fmt.Errorf("stats: semi-log fit requires positive y, got %v at %d", ys[i], i)
		}
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(xs, ly)
}

// KSDistance computes the two-sample Kolmogorov–Smirnov statistic: the
// maximum absolute difference between the empirical CDFs of a and b. The
// inputs are sorted in place. It is the cross-check metric pinning the
// time-bridged simulator against the per-event reference (DESIGN.md §8);
// compare against c(α)·sqrt((n+m)/(n·m)) with c(0.001) ≈ 1.949.
func KSDistance(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	d, i, j := 0.0, 0, 0
	for i < len(a) && j < len(b) {
		// Advance past every copy of the smaller value on both sides
		// before comparing CDFs, so tied observations (measure-zero for
		// the continuous samples this is used on, but cheap to handle
		// exactly) contribute no spurious transient gap.
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		if diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b))); diff > d {
			d = diff
		}
	}
	return d
}
