// Package walk reproduces the probabilistic machinery of the paper's
// Section 3: the simple random walk and its sub-Gaussian tail (Theorem 3),
// the biased dominating walk W̃ whose increments are +log n with
// probability 1/2 and −(3/2)·log n otherwise, and the statistics used to
// check empirically that the per-epoch log-variance process of Algorithm A
// is dominated by W̃.
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

// SimpleWalk returns one trajectory of the simple ±1 random walk S_0..S_k
// (length k+1, S_0 = 0).
func SimpleWalk(r *rng.RNG, k int) []int {
	path := make([]int, k+1)
	for i := 1; i <= k; i++ {
		step := -1
		if r.Uint64()&1 == 1 {
			step = 1
		}
		path[i] = path[i-1] + step
	}
	return path
}

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

// EpochStats summarises the per-epoch increments of ½·log varX(T_k⁺), the
// quantity the paper dominates with W̃ (½ because ‖·‖ enters varX squared).
type EpochStats struct {
	// Increments are the per-epoch changes of ½·log var.
	Increments []float64
	// MeanIncrement should be negative (net contraction) and ideally below
	// the dominating drift −(log n)/4.
	MeanIncrement float64
	// MaxIncrement must respect the hard bound log n from ‖A_k‖ ≤ n.
	MaxIncrement float64
	// FracWeak is the fraction of epochs whose contraction is weaker than
	// n^{−3/2} (i.e. increment > −(3/2)·log n). Lemma 1 + the dominance
	// construction require this to be ≤ 1/2.
	FracWeak float64
	// HardViolations counts increments exceeding log n (+ small tolerance):
	// impossible under the paper's Equation 12, so should be 0.
	HardViolations int
}

// AnalyzeEpochIncrements computes EpochStats from the sequence of
// ½·log varX(T_k⁺) values at successive epoch boundaries (k = 0, 1, ...)
// for a graph on n nodes. It returns an error with fewer than two points or
// n < 2.
func AnalyzeEpochIncrements(halfLogVar []float64, n int) (EpochStats, error) {
	if len(halfLogVar) < 2 {
		return EpochStats{}, errors.New("walk: need at least two epoch boundary values")
	}
	if n < 2 {
		return EpochStats{}, fmt.Errorf("walk: n = %d too small", n)
	}
	logN := math.Log(float64(n))
	var st EpochStats
	weak := 0
	st.MaxIncrement = math.Inf(-1)
	for k := 1; k < len(halfLogVar); k++ {
		inc := halfLogVar[k] - halfLogVar[k-1]
		st.Increments = append(st.Increments, inc)
		if inc > st.MaxIncrement {
			st.MaxIncrement = inc
		}
		if inc > -1.5*logN {
			weak++
		}
		if inc > logN*(1+1e-9)+1e-9 {
			st.HardViolations++
		}
	}
	st.MeanIncrement = stats.Mean(st.Increments)
	st.FracWeak = float64(weak) / float64(len(st.Increments))
	return st, nil
}
