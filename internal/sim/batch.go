package sim

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// BatchKernel is the algorithm side of the replica-batched engine: R
// independent replicas of one algorithm over a shared graph, each an
// ordinary single run with its own value state (gossip.Ensemble). The
// engine owns event sampling and simulated time; the kernel owns the
// per-event state updates. Methods are replica-addressed because the
// engine round-robins chunks across replicas — replica rep's chunk touches
// only replica rep's values, while the graph's flat arrays are shared by
// all.
type BatchKernel interface {
	// Replicas returns the batch width R.
	Replicas() int
	// TickChunkTracked applies the chunk with eager per-event moments and
	// returns the index within edges of the last event whose post-tick
	// variance exceeded exceedLevel (-1 when none did), together with the
	// post-chunk variance.
	TickChunkTracked(rep int, edges []graph.EdgeID, exceedLevel float64) (lastIdx int, endVar float64)
	// ReplicaVariance returns replica rep's current variance.
	ReplicaVariance(rep int) float64
}

// chunkSize is the number of per-replica events per bridge draw. It is a
// fixed constant — never a function of the batch width — because each
// replica's chunk boundaries are part of its deterministic trajectory:
// the same replica stream must see the same chunks whether it runs alone
// or interleaved with 63 others.
const chunkSize = batchSize

// BatchEngine advances R independent replicas of one scenario in
// interleaved lockstep: the graph's flat endpoint arrays and the (single)
// alias table are loaded once and stay hot while the engine round-robins
// fixed-size chunks across the replicas. Each replica consumes only its
// own RNG stream, so its trajectory is byte-identical for any batch width
// and any interleaving (TestBatchEngineWidthDeterminism and
// TestBatchRunTrackedWidthDeterminism check it).
//
// Time is Poisson-bridged: the superposed edge process is Poisson at the
// total rate, so the elapsed time of a k-event chunk is Gamma(k) scaled by
// the mean gap — one GammaInt draw replaces k per-event exponential draws,
// leaving one uniform (the edge pick) as the only per-event randomness.
// Event times inside a chunk are not materialised; when the tracked run
// needs one (the last exceedance of the averaging-time statistic, landing
// strictly inside a chunk) it is resolved by the order-statistics identity
// S_j | S_k = D  ~  D·Beta(j, k−j), costing two GammaInt draws for that
// chunk only. The avgtime package tests keep a per-event estimator with
// its own clock as the distribution oracle and KS-test this engine
// against it.
type BatchEngine struct {
	rateClock
	g       *graph.Graph
	kern    BatchKernel
	reps    []batchReplica
	picks   []graph.EdgeID   // chunk scratch, shared across replicas
	observe func(BatchStats) // nil unless WithBatchObserver; per-pass, never per-event
	chunks  int64
}

type batchReplica struct {
	r      *rng.RNG
	now    float64
	events int64
}

// BatchStats is a point-in-time view of a running BatchEngine, delivered
// to the observer installed with WithBatchObserver once per round-robin
// pass (every replica gets at most one chunk per pass). It exists for
// telemetry — progress lines, events/sec meters, occupancy gauges — and
// carries only values the engine already maintains, so observation costs
// one closure call per R·chunkSize events and nothing at all per event.
type BatchStats struct {
	// Events is the total tick count across all replicas so far.
	Events int64
	// Chunks is the number of chunk-bridge draws consumed so far (one
	// Gamma draw of simulated time per chunk).
	Chunks int64
	// Active is the number of replicas that advanced in the pass just
	// completed; it decays to 0 as tracked replicas hit their stop rule.
	Active int
	// Now is the minimum simulated time over the replicas that advanced
	// in the pass — the trailing edge of the batch.
	Now float64
}

// BatchOption configures NewBatchEngine.
type BatchOption func(*batchConfig)

type batchConfig struct {
	rates   []float64
	observe func(BatchStats)
}

// WithBatchObserver installs a telemetry callback invoked once per
// round-robin pass of RunTracked. The observer must not retain the stats
// value's address and must be fast — it runs on the simulation goroutine. It never touches the per-event path and never
// consumes randomness, so installing one cannot perturb any replica
// trajectory (the package tests pin this byte-for-byte).
func WithBatchObserver(fn func(BatchStats)) BatchOption {
	return func(c *batchConfig) { c.observe = fn }
}

// WithBatchRates sets per-edge clock rates; len must equal g.NumEdges()
// and all rates must be positive. The default is rate 1 on every edge.
// Heterogeneous rates cost nothing extra per event — the superposition is
// still Poisson at the total rate, and the pick goes through the shared
// alias table.
func WithBatchRates(rates []float64) BatchOption {
	return func(c *batchConfig) { c.rates = rates }
}

// NewBatchEngine builds a replica-batched engine for g driving kern, with
// one independent RNG stream per replica (len(streams) must equal
// kern.Replicas(); derive them with rng.Split or per-replica seeds).
func NewBatchEngine(g *graph.Graph, kern BatchKernel, streams []*rng.RNG, opts ...BatchOption) (*BatchEngine, error) {
	if kern == nil {
		return nil, errors.New("sim: nil batch kernel")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("sim: %s has no edges to tick", g)
	}
	if len(streams) != kern.Replicas() {
		return nil, fmt.Errorf("sim: %d streams for %d replicas", len(streams), kern.Replicas())
	}
	var cfg batchConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	clock, err := newRateClock(g, cfg.rates)
	if err != nil {
		return nil, err
	}
	be := &BatchEngine{
		rateClock: clock,
		g:         g,
		kern:      kern,
		reps:      make([]batchReplica, len(streams)),
		picks:     make([]graph.EdgeID, chunkSize),
		observe:   cfg.observe,
	}
	for rep, r := range streams {
		if r == nil {
			return nil, fmt.Errorf("sim: replica %d stream is nil", rep)
		}
		be.reps[rep].r = r
	}
	return be, nil
}

// Graph returns the simulated graph.
func (be *BatchEngine) Graph() *graph.Graph { return be.g }

// Replicas returns the batch width R.
func (be *BatchEngine) Replicas() int { return len(be.reps) }

// Events returns the total tick count across all replicas.
func (be *BatchEngine) Events() int64 {
	var n int64
	for i := range be.reps {
		n += be.reps[i].events
	}
	return n
}

// RunTracked drives every replica under the averaging-time stop rule,
// evaluated at chunk granularity: a replica stops once its simulated time
// reaches MaxTime, or once its variance is below StopLevel and Quiet time
// has passed since its last exceedance, checked before each chunk (so a
// run may overshoot a per-event stop point by up to one chunk; the
// recorded last-exceedance statistic is unaffected for variance-monotone
// algorithms and distributionally indistinguishable otherwise — the
// avgtime KS tests cover both). It returns one TrackedResult per replica.
func (be *BatchEngine) RunTracked(cfg Tracked) []TrackedResult {
	res := make([]TrackedResult, len(be.reps))
	type trackState struct {
		v          float64
		lastExceed float64
		done       bool
	}
	states := make([]trackState, len(be.reps))
	for rep := range states {
		states[rep].v = be.kern.ReplicaVariance(rep)
	}
	for {
		active := 0
		minNow := math.Inf(1)
		for rep := range be.reps {
			st := &states[rep]
			if st.done {
				continue
			}
			r := &be.reps[rep]
			if r.now >= cfg.MaxTime {
				st.done = true
				res[rep] = TrackedResult{
					LastExceed: st.lastExceed,
					Censored:   st.v >= cfg.StopLevel,
				}
				continue
			}
			if st.v < cfg.StopLevel && r.now >= st.lastExceed+cfg.Quiet {
				st.done = true
				res[rep] = TrackedResult{LastExceed: st.lastExceed}
				continue
			}
			active++
			picks := be.picks[:chunkSize]
			be.fillPicks(r.r, picks)
			lastIdx, endVar := be.kern.TickChunkTracked(rep, picks, cfg.ExceedLevel)
			start := r.now
			d := r.r.GammaInt(chunkSize) * be.invTotal
			r.now = start + d
			r.events += chunkSize
			be.chunks++
			if r.now < minNow {
				minNow = r.now
			}
			st.v = endVar
			switch {
			case lastIdx == chunkSize-1:
				// The last event of the chunk exceeded: its time is the
				// chunk end — no extra draw. While the variance is above
				// the threshold this is every chunk, so the steady state
				// costs one Gamma draw per chunk total.
				st.lastExceed = r.now
			case lastIdx >= 0:
				// The last exceedance lies strictly inside the chunk:
				// conditioned on the chunk duration d, the j-th event time
				// is d·Beta(j, k−j) past the chunk start, sampled as
				// G₁/(G₁+G₂) with G₁ ~ Gamma(j), G₂ ~ Gamma(k−j).
				j := lastIdx + 1
				g1 := r.r.GammaInt(j)
				g2 := r.r.GammaInt(chunkSize - j)
				st.lastExceed = start + d*(g1/(g1+g2))
			}
		}
		if active == 0 {
			return res
		}
		if be.observe != nil {
			be.observe(BatchStats{Events: be.Events(), Chunks: be.chunks, Active: active, Now: minNow})
		}
	}
}
