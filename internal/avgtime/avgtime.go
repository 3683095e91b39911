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
// quantile. The threshold e⁻² and the quantile 1 − 1/e are fixed
// (DefaultThreshold, DefaultQuantile); Config sets only the trial count,
// margin, horizon, seed, batch width and observer.
//
// Non-convex algorithms (Algorithm A) can re-inflate the variance by up to
// ‖A‖² ≤ n² at a swap, so "currently below the threshold" does not imply
// "below forever". A trial therefore only stops once the ratio is below
// threshold·MarginFactor (default 1e−8, far below any single-swap
// re-inflation on the graph sizes used here) and a quiet period has passed
// since the last exceedance: two epochs for an EpochHinter, one time unit
// otherwise. Trials that still exceed the margin at MaxTime are reported
// as censored.
//
// Key types: Config, Result, Estimate/EstimateWithRates (per-event),
// EstimateBatched (replica-batched, DESIGN.md §8) and EstimateSharded. The
// timing model is DESIGN.md §2.
package avgtime

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/stats"
)

// DefaultThreshold is e⁻², the variance ratio in Definition 1.
var DefaultThreshold = math.Exp(-2)

// DefaultQuantile is 1 − 1/e, the confidence level in Definition 1.
var DefaultQuantile = 1 - math.Exp(-1)

// Factory constructs a fresh algorithm instance for one trial. The supplied
// RNG stream is private to the trial (pass it to algorithms that need
// internal randomness, e.g. push-sum).
type Factory func(trial int, r *rng.RNG) (gossip.Algorithm, error)

// EpochHinter is implemented by algorithms with an intrinsic epoch length
// (Algorithm A); the estimator sizes its quiet period from the hint.
type EpochHinter interface {
	EpochDuration() float64
}

// Config controls the estimator. The zero value is usable: all fields
// default as documented.
type Config struct {
	// Trials is the number of independent simulations (default 9).
	Trials int
	// MarginFactor stops a trial only when ratio < DefaultThreshold ·
	// MarginFactor (default 1e−8).
	MarginFactor float64
	// MaxTime hard-caps each trial (default 1e6 time units). Trials
	// reaching it above the margin are counted in Result.Censored.
	MaxTime float64
	// Seed seeds the trial streams (default 1).
	Seed uint64
	// BatchWidth caps the number of trials resident per replica batch in
	// EstimateBatched (0 = all trials in one batch). It bounds memory
	// only; the Result is byte-identical for any width. Ignored by
	// Estimate.
	BatchWidth int
	// Observer, when non-nil, receives periodic sim.BatchStats from
	// EstimateBatched's engines, with Events accumulated across batches so
	// the meter is monotone over the whole estimate. Observation never
	// consumes randomness: the Result is byte-identical with or without
	// an observer. Ignored by Estimate.
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
// above DefaultThreshold, a stop below DefaultThreshold·MarginFactor, and
// a quiet period of twice the algorithm's epoch-duration hint when it
// provides one and 1 otherwise. Shared by the estimators so the
// Definition-1 stop rule cannot drift between them.
func (c Config) tracked(var0 float64, alg any) sim.Tracked {
	quiet := 1.0
	if h, ok := alg.(EpochHinter); ok {
		quiet = 2 * h.EpochDuration()
	}
	return sim.Tracked{
		ExceedLevel: DefaultThreshold * var0,
		StopLevel:   DefaultThreshold * c.MarginFactor * var0,
		Quiet:       quiet,
		MaxTime:     c.MaxTime,
	}
}

// Result summarises an estimation run.
type Result struct {
	// Tav is the DefaultQuantile empirical quantile of the per-trial last
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

// Estimate measures the averaging time of the algorithm produced by factory
// on graph g under the paper's rate-1 edge clocks.
func Estimate(g *graph.Graph, factory Factory, cfg Config) (Result, error) {
	return EstimateWithRates(g, nil, factory, cfg)
}

// EstimateWithRates is Estimate under heterogeneous per-edge clock rates
// (nil rates = rate 1 everywhere). Used by the timing-model experiments
// (node-clock model, random rates).
func EstimateWithRates(g *graph.Graph, rates []float64, factory Factory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if factory == nil {
		return Result{}, errors.New("avgtime: nil factory")
	}
	root := rng.New(cfg.Seed)
	res := Result{PerTrial: make([]float64, 0, cfg.Trials)}
	for trial := 0; trial < cfg.Trials; trial++ {
		algRNG := root.Split()
		simRNG := root.Split()
		alg, err := factory(trial, algRNG)
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: trial %d factory: %w", trial, err)
		}
		last, censored, events, err := runTrial(g, rates, alg, simRNG, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("avgtime: trial %d: %w", trial, err)
		}
		if censored {
			res.Censored++
		}
		res.Events += events
		res.PerTrial = append(res.PerTrial, last)
	}
	q, err := stats.Quantile(res.PerTrial, DefaultQuantile)
	if err != nil {
		return Result{}, err
	}
	res.Tav = q
	res.Mean, res.CI95 = stats.MeanCI95(res.PerTrial)
	return res, nil
}

// runTrial simulates one trial on the engine's tracked per-event loop and
// returns the last exceedance time: zero closures and exactly one moment
// read per event.
func runTrial(g *graph.Graph, rates []float64, alg gossip.Algorithm, r *rng.RNG, cfg Config) (last float64, censored bool, events int64, err error) {
	var0 := alg.Variance()
	if var0 == 0 {
		return 0, false, 0, nil // already averaged
	}
	opts := []sim.Option{sim.WithRNG(r)}
	if rates != nil {
		opts = append(opts, sim.WithRates(rates))
	}
	eng, err := sim.NewEngine(g, alg, opts...)
	if err != nil {
		return 0, false, 0, err
	}
	res := eng.RunTracked(cfg.tracked(var0, alg))
	return res.LastExceed, res.Censored, eng.Events(), nil
}

// VanillaFactory builds the standard factory for vanilla gossip with a
// fixed initial vector.
func VanillaFactory(g *graph.Graph, x0 []float64) Factory {
	return func(int, *rng.RNG) (gossip.Algorithm, error) {
		return gossip.NewVanilla(g, x0)
	}
}

// MeasureTvan empirically measures Tvan(g), the averaging time of vanilla
// gossip. Definition 1 takes a supremum over initial vectors; as a
// practical stand-in this uses the spike initial condition (all variance at
// one node), which excites every decay mode of the process and tracks the
// worst case up to constants on the graphs used in this repository. The
// analytic counterpart is spectral.TvanBound = 6/λ2; the package tests
// compare the two.
func MeasureTvan(g *graph.Graph, cfg Config) (Result, error) {
	x0, err := gossip.Spike(g.NumNodes(), 0)
	if err != nil {
		return Result{}, err
	}
	return Estimate(g, VanillaFactory(g, x0), cfg)
}
