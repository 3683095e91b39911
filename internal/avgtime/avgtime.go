// Package avgtime estimates the paper's averaging time Tav (Definition 1)
// by Monte-Carlo simulation.
//
// Definition 1 asks for the smallest t such that, from the worst-case
// initial vector, with probability at least 1 − 1/e the normalized variance
// varX(T)/varX(0) never exceeds e⁻² for any T > t. The per-trial statistic
// is therefore the *last exceedance time*
//
//	L = sup{ T : varX(T)/varX(0) > e⁻² },
//
// and Tav is the (1 − 1/e)-quantile of L's distribution. The estimator runs
// independent trials, records L in each, and reports the empirical
// quantile. The threshold e⁻² and the quantile 1 − 1/e are fixed package
// constants; Config sets only the trial count, margin, horizon, seed and
// observer.
//
// Non-convex algorithms (Algorithm A) can re-inflate the variance by up to
// ‖A‖² ≤ n² at a swap, so "currently below the threshold" does not imply
// "below forever". A trial therefore only stops once the ratio is below
// threshold·MarginFactor (default 1e−8, far below any single-swap
// re-inflation on the graph sizes used here) and a quiet period has passed
// since the last exceedance: two epochs for a kernel that reports an epoch
// (EpochHinter), one time unit otherwise. Trials that still exceed the
// margin at MaxTime are reported as censored.
//
// There is one estimator per engine: EstimateBatched (replica-batched,
// DESIGN.md §8) for every materialised graph, and EstimateSharded for
// implicit graphs too large to materialise. The per-event estimator the
// package tests use as the KS oracle lives in the test files. The timing
// model is DESIGN.md §2.
package avgtime

import (
	"fmt"

	"sparsecut/internal/sim"
	"sparsecut/internal/stats"
)

// threshold is e⁻², the variance ratio in Definition 1, and quantile is
// 1 − 1/e, its confidence level. The literals are math.Exp(-2) and
// 1 − math.Exp(-1) to the bit (the package tests check it).
const (
	threshold = 0.1353352832366127
	quantile  = 0.6321205588285577
)

// EpochHinter is implemented by kernels whose runs have an intrinsic epoch
// length (gossip.Ensemble of Algorithm A runs); the estimator sizes its
// quiet period from a positive hint.
type EpochHinter interface {
	EpochDuration() float64
}

// Config controls the estimator. The zero value is usable: all fields
// default as documented.
type Config struct {
	// Trials is the number of independent simulations (default 9).
	Trials int
	// MarginFactor stops a trial only when ratio < e⁻² · MarginFactor
	// (default 1e−8).
	MarginFactor float64
	// MaxTime hard-caps each trial (default 1e6 time units). Trials
	// reaching it above the margin are counted in Result.Censored.
	MaxTime float64
	// Seed seeds the trial streams (default 1).
	Seed uint64
	// Observer, when non-nil, receives periodic sim.BatchStats from
	// EstimateBatched's engine. Observation never consumes randomness:
	// the Result is byte-identical with or without an observer. Ignored
	// by EstimateSharded.
	Observer func(sim.BatchStats)
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 9
	}
	if c.MarginFactor == 0 {
		c.MarginFactor = 1e-8
	}
	if c.MaxTime == 0 {
		c.MaxTime = 1e6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("avgtime: trials %d < 1", c.Trials)
	}
	if c.MarginFactor <= 0 || c.MarginFactor > 1 {
		return fmt.Errorf("avgtime: margin factor %v outside (0,1]", c.MarginFactor)
	}
	if c.MaxTime <= 0 {
		return fmt.Errorf("avgtime: max time %v must be positive", c.MaxTime)
	}
	return nil
}

// tracked returns the stop rule of one trial from varX(0): exceedances
// above the threshold, a stop below threshold·MarginFactor, and a quiet
// period of twice the kernel's epoch-duration hint when it gives a
// positive one and 1 otherwise. Shared by the estimators so the
// Definition-1 stop rule cannot drift between them.
func (c Config) tracked(var0 float64, kern any) sim.Tracked {
	quiet := 1.0
	if h, ok := kern.(EpochHinter); ok && h.EpochDuration() > 0 {
		quiet = 2 * h.EpochDuration()
	}
	return sim.Tracked{
		ExceedLevel: threshold * var0,
		StopLevel:   threshold * c.MarginFactor * var0,
		Quiet:       quiet,
		MaxTime:     c.MaxTime,
	}
}

// Result summarises an estimation run.
type Result struct {
	// Tav is the 1 − 1/e empirical quantile of the per-trial last
	// exceedance times — the Definition 1 estimate.
	Tav float64
	// PerTrial holds each trial's last exceedance time L.
	PerTrial []float64
	// Mean and CI95 are the sample mean of L and its 95% half-width.
	Mean, CI95 float64
	// Censored counts trials that hit MaxTime while still above
	// threshold·margin; their L values are lower bounds.
	Censored int
	// Events is the total number of simulated edge ticks across trials.
	Events int64
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("Tav=%.4g (mean=%.4g ±%.3g, trials=%d, censored=%d)",
		r.Tav, r.Mean, r.CI95, len(r.PerTrial), r.Censored)
}

// summarise sets Tav, Mean and CI95 from PerTrial.
func (r *Result) summarise() error {
	q, err := stats.Quantile(r.PerTrial, quantile)
	if err != nil {
		return err
	}
	r.Tav = q
	r.Mean, r.CI95 = stats.MeanCI95(r.PerTrial)
	return nil
}
