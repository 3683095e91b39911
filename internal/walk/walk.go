// Package walk reproduces the probabilistic machinery of the paper's
// Section 3: the simple random walk's sub-Gaussian tail (Theorem 3) and
// the biased dominating walk W̃ whose increments are +log n with
// probability 1/2 and −(3/2)·log n otherwise, against which E6 checks the
// per-epoch log-variance process of Algorithm A.
//
// Key functions: FitTail (Theorem 3's sub-Gaussian tail, E7) and HittingQuantile (the dominating walk of E6). Claim mapping in DESIGN.md §4.
package walk

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

// TailProbability estimates P[S_n ≥ s·√n] for the simple random walk by
// Monte-Carlo over the given number of trials. It returns an error for
// non-positive steps or trials.
func TailProbability(r *rng.RNG, steps int, s float64, trials int) (float64, error) {
	if steps < 1 || trials < 1 {
		return 0, fmt.Errorf("walk: need positive steps and trials, got %d, %d", steps, trials)
	}
	threshold := s * math.Sqrt(float64(steps))
	hits := 0
	for t := 0; t < trials; t++ {
		pos := 2*r.CountOnes(steps) - steps // heads minus tails
		if float64(pos) >= threshold {
			hits++
		}
	}
	return float64(hits) / float64(trials), nil
}

// TailFit holds the sub-Gaussian fit of Theorem 3: probabilities p(s)
// modelled as p = c·e^{−β·s²}.
type TailFit struct {
	C, Beta float64
	// S and P are the sampled tail points used for the fit (zero-probability
	// points are dropped before fitting).
	S, P []float64
	// R2 is the goodness of the fit of log p against s².
	R2 float64
}

// FitTail estimates P[S_n ≥ s√n] for every s in ss and fits the Theorem 3
// form c·e^{−βs²}. Points with zero empirical probability are excluded from
// the fit; at least two nonzero points are required.
func FitTail(r *rng.RNG, steps int, ss []float64, trials int) (TailFit, error) {
	if len(ss) < 2 {
		return TailFit{}, errors.New("walk: need at least two s values")
	}
	fit := TailFit{}
	var s2, ps []float64
	for _, s := range ss {
		p, err := TailProbability(r, steps, s, trials)
		if err != nil {
			return TailFit{}, err
		}
		fit.S = append(fit.S, s)
		fit.P = append(fit.P, p)
		if p > 0 {
			s2 = append(s2, s*s)
			ps = append(ps, p)
		}
	}
	if len(ps) < 2 {
		return TailFit{}, errors.New("walk: fewer than two nonzero tail points; increase trials")
	}
	lf, err := stats.SemiLogYFit(s2, ps)
	if err != nil {
		return TailFit{}, err
	}
	fit.C = math.Exp(lf.Intercept)
	fit.Beta = -lf.Slope
	fit.R2 = lf.R2
	return fit, nil
}

// Dominating is the paper's dominating walk W̃ for a graph on n nodes:
// increments are +log n with probability 1/2 and −(3/2)·log n otherwise,
// giving drift −(log n)/4 per step.
type Dominating struct {
	LogN float64
}

// NewDominating builds the dominating walk for an n-node graph. It returns
// an error if n < 2.
func NewDominating(n int) (Dominating, error) {
	if n < 2 {
		return Dominating{}, fmt.Errorf("walk: dominating walk needs n >= 2, got %d", n)
	}
	return Dominating{LogN: math.Log(float64(n))}, nil
}

// Step draws one increment.
func (d Dominating) Step(r *rng.RNG) float64 {
	if r.Uint64()&1 == 1 {
		return d.LogN
	}
	return -1.5 * d.LogN
}

// Sample returns the trajectory W̃_0..W̃_k (length k+1, W̃_0 = 0).
func (d Dominating) Sample(r *rng.RNG, k int) []float64 {
	path := make([]float64, k+1)
	for i := 1; i <= k; i++ {
		path[i] = path[i-1] + d.Step(r)
	}
	return path
}

// LastTimeAbove returns the largest index k with path[k] > level, or -1
// when the path never exceeds level. This is the per-trajectory statistic
// behind "P[∀T > t0 : W̃_T ≤ −2] > 1 − 1/e".
func LastTimeAbove(path []float64, level float64) int {
	last := -1
	for k, v := range path {
		if v > level {
			last = k
		}
	}
	return last
}

// HittingQuantile estimates the q-quantile of the last time the dominating
// walk for an n-node graph sits above the given level, over the given
// number of trials of the given horizon. Trajectories still above
// level−margin at the horizon are conservatively scored at the horizon.
func HittingQuantile(r *rng.RNG, n int, level float64, q float64, trials, horizon int) (float64, error) {
	d, err := NewDominating(n)
	if err != nil {
		return 0, err
	}
	lasts := make([]float64, 0, trials)
	for t := 0; t < trials; t++ {
		path := d.Sample(r, horizon)
		lasts = append(lasts, float64(LastTimeAbove(path, level)+1))
	}
	return stats.Quantile(lasts, q)
}
