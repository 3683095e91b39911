package stats

import "math"

// Welford is a streaming accumulator for mean, variance and range using
// Welford's numerically stable online algorithm. The zero value is an
// empty accumulator. It lets the sweep engine fold per-trial statistics
// into a cell without retaining every sample.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased (n-1 denominator) sample variance; 0 for
// fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the square root of Variance.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean (0 for fewer than two observations), matching
// MeanCI95.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	const z = 1.96
	return z * w.StdDev() / math.Sqrt(float64(w.n))
}
