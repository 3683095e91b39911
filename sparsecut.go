// Package sparsecut is a Go implementation of the algorithms and evaluation
// of Hariharan Narayanan, "Distributed averaging in the presence of a
// sparse cut" (PODC 2008, arXiv:0803.3642): asynchronous gossip averaging
// on graphs whose two well-connected halves are joined by a sparse cut.
//
// The paper's contribution, implemented here as Algorithm A
// (NewAlgorithmA), combines vanilla pairwise averaging inside each half
// with a rare *non-convex* exchange across one designated cut edge. Any
// algorithm restricted to convex pairwise updates needs averaging time
// Ω(min(|V1|,|V2|)/|E12|) on such graphs (Theorem 1); Algorithm A needs
// only O(log n · (Tvan(G1)+Tvan(G2))) (Theorem 2) — an exponential
// separation in n on the two-clique dumbbell.
//
// # Quick start
//
//	g, part, _ := sparsecut.NewDumbbell(64, 64, 1)
//	x0 := sparsecut.WorstCaseInit(part)
//	alg, _ := sparsecut.NewAlgorithmA(g, x0, sparsecut.WithPartition(part))
//	res := sparsecut.Simulate(g, alg, 50, 1)
//	fmt.Printf("variance ratio after t=50: %g\n", res.VarianceRatio)
//
// The package is a facade over the implementation packages under
// internal/, trimmed to what the examples and commands use: graph
// constructors and DOT export, cut detection, the event-driven Poisson
// simulator, averaging-time estimation, and the decentralized
// message-passing runtime with its telemetry and flight recorder. The
// scenario sweep, the batched and sharded engines, the model checker and
// the E1–E15 reproduction suite are driven through cmd/ (sweep,
// gossipsim, mcheck, repro). Everything is stdlib-only.
package sparsecut

import (
	"fmt"
	"io"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/core"
	"sparsecut/internal/cut"
	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
)

// Re-exported graph types. External users interact with them through this
// package's constructors.
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// Partition is a two-way vertex partition with cut accounting.
	Partition = graph.Partition
	// NodeID identifies a vertex (dense, 0-based).
	NodeID = graph.NodeID
	// EdgeID identifies an edge (dense, 0-based).
	EdgeID = graph.EdgeID
	// Algorithm is a gossip process driven by edge clock ticks.
	Algorithm = gossip.Algorithm
)

// Side1 labels the first block of a two-way partition.
const Side1 = graph.Side1

// WithPartition supplies a known sparse-cut partition to NewAlgorithmA
// (otherwise the cut is auto-detected by spectral bisection).
var WithPartition = core.WithPartition

// AlgorithmAOption configures NewAlgorithmA.
type AlgorithmAOption = core.Option

// ExactSwapWeight returns w* = n1·n2/(n1+n2) for a partition — the swap
// coefficient that exactly annihilates both side means (NewAlgorithmA's
// default), for callers that need the number itself, e.g. to hand to
// NewSparseCutExchange.
func ExactSwapWeight(p *Partition) float64 { return core.ExactWeight(p) }

// NewDumbbell returns two cliques K_n1, K_n2 joined by cutEdges edges — the
// paper's canonical sparse-cut graph — together with the planted partition.
func NewDumbbell(n1, n2, cutEdges int) (*Graph, *Partition, error) {
	return graph.Dumbbell(n1, n2, cutEdges)
}

// NewSensorField returns a random geometric graph on the unit square whose
// halves are separated by a wall with the given number of door edges — the
// sensor-network scenario motivated by the paper's reference [6]. The
// radius is 2x the standard connectivity radius. It is the scenario
// registry's sensor family, so a seed gives the graph that
// `gossipsim -graph sensor -n n -cut doors -seed seed` builds. As in every
// spec, a zero argument takes the family default and seed 0 means seed 1.
func NewSensorField(seed uint64, n, doors int) (*Graph, *Partition, error) {
	r, err := scenario.Spec{Graph: scenario.GraphSpec{Family: "sensor", N: n, Cut: doors}, Seed: seed}.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return r.Graph, r.Partition, nil
}

// WriteDOT exports a graph (optionally with a highlighted partition) as
// Graphviz DOT.
func WriteDOT(w io.Writer, g *Graph, p *Partition) error { return graph.WriteDOT(w, g, p) }

// FindSparseCut locates a sparse cut by spectral bisection with a sweep
// cut. The graph must be connected.
func FindSparseCut(g *Graph) (*Partition, error) {
	return cut.SpectralBisection(g, spectral.Options{})
}

// AlgebraicConnectivity returns λ2 of the graph Laplacian, the spectral
// quantity controlling vanilla gossip's averaging time (Tvan <= 6/λ2).
func AlgebraicConnectivity(g *Graph) (float64, error) {
	lam2, _, err := spectral.Lambda2(g, spectral.Options{})
	return lam2, err
}

// WorstCaseInit returns the paper's worst-case initial vector for a
// partition: +1 on V1, -n1/n2 on V2 (mean zero, all variance across the
// cut).
func WorstCaseInit(p *Partition) []float64 { return gossip.CutIndicator(p) }

// RandomInit returns n i.i.d. uniform values on [-1, 1).
func RandomInit(seed uint64, n int) []float64 {
	return gossip.UniformRandom(rng.New(seed), n)
}

// NewVanillaGossip builds the baseline algorithm: a tick of an edge
// replaces both endpoint values by their mean.
func NewVanillaGossip(g *Graph, x0 []float64) (Algorithm, error) {
	return gossip.NewVanilla(g, x0)
}

// NewAlgorithmA builds the paper's Algorithm A. Without WithPartition the
// sparse cut is auto-detected. The concrete type additionally exposes
// Swaps, Weight, EpochTicks, SideMeans and EpochDuration.
func NewAlgorithmA(g *Graph, x0 []float64, opts ...AlgorithmAOption) (*core.SparseCutAveraging, error) {
	return core.New(g, x0, opts...)
}

// SimResult summarises a Simulate run.
type SimResult struct {
	// Time and Events are the simulated horizon actually reached.
	Time   float64
	Events int64
	// Mean is the final average (invariant for sum-preserving algorithms).
	Mean float64
	// Variance is the final varX; VarianceRatio is Variance/varX(0).
	Variance      float64
	VarianceRatio float64
}

// Simulate drives alg with rate-1 Poisson edge clocks on g until simulated
// time `until`, deterministically in seed. It panics only on programmer
// error (nil algorithm); graph/algorithm mismatches surface when the
// algorithm was constructed.
func Simulate(g *Graph, alg Algorithm, until float64, seed uint64) SimResult {
	var0 := alg.Variance()
	eng, err := sim.NewEngine(g, alg, sim.WithSeed(seed))
	if err != nil {
		panic(fmt.Sprintf("sparsecut: Simulate: %v", err))
	}
	// RunUntil drives alg's TickEdges in fused batches.
	t, events := eng.RunUntil(until)
	res := SimResult{
		Time:     t,
		Events:   events,
		Mean:     alg.Mean(),
		Variance: alg.Variance(),
	}
	if var0 > 0 {
		res.VarianceRatio = res.Variance / var0
	}
	return res
}

// Averaging-time estimation, re-exported from internal/avgtime.
type (
	// TavConfig configures MeasureAveragingTime: trials, margin, horizon,
	// seed and observer (zero value = 9 trials). The
	// threshold e^-2 and the confidence 1-1/e are Definition 1's, constants
	// of the estimator that no caller can change.
	TavConfig = avgtime.Config
	// TavResult is the estimate with per-trial data and censoring info.
	TavResult = avgtime.Result
)

// Factory builds a fresh Algorithm for one estimation trial. The seed is a
// trial-private value for algorithms needing internal randomness;
// deterministic algorithms may ignore it. The trials run as replicas of
// one batch, driven through the Algorithm's TickChunkTracked, so every
// trial must start from the same initial vector.
type Factory func(trial int, seed uint64) (Algorithm, error)

// MeasureAveragingTime estimates the paper's Tav (Definition 1) for the
// algorithm produced by factory on g, by Monte-Carlo over independent
// trials.
func MeasureAveragingTime(g *Graph, factory Factory, cfg TavConfig) (TavResult, error) {
	return avgtime.EstimateBatched(g, nil, func(replicas int, streams []*rng.RNG) (sim.BatchKernel, error) {
		// One batch holds every trial, so replica rep is trial rep.
		return gossip.NewEnsemble(replicas, func(rep int) (Algorithm, error) {
			alg, err := factory(rep, streams[rep].Uint64())
			if err != nil {
				return nil, fmt.Errorf("trial %d: %w", rep, err)
			}
			return alg, nil
		})
	}, cfg)
}

// Decentralized message-passing runtime, re-exported from internal/dist:
// the same local rules the simulator applies centrally, run as nodes
// exchanging messages within and across shard event loops, optionally
// over a lossy or slow network (ClusterConfig.Drop and Delay).
type (
	// ClusterConfig holds the runtime's protocol settings (time scale,
	// seed, message loss and delay, telemetry registry, flight recorder);
	// it is embedded in ShardRuntimeConfig.
	ClusterConfig = dist.ClusterConfig
	// ExchangeRule is the local update a committed pairwise exchange
	// applies — the runtime counterpart of Algorithm.
	ExchangeRule = dist.Rule
	// ShardRuntime is the decentralized runtime: the exchange protocol's
	// state machine driven by S shard event loops with per-shard timer
	// wheels and batched mailboxes, from a dozen nodes to 10^6 on one box.
	// Construct with NewShardRuntime and drive with Run.
	ShardRuntime = dist.ShardRuntime
	// ShardRuntimeConfig configures NewShardRuntime (ClusterConfig plus
	// shard count and mailbox capacity; the timer-wheel tick and the
	// proposal resend lease derive from TimeScale and LockTimeout).
	ShardRuntimeConfig = dist.ShardRuntimeConfig
)

// Telemetry, re-exported from internal/metrics: the dependency-free
// counters/gauges/histograms registry the runtime layers record into.
// Construct one with NewMetricsRegistry, hand it to ClusterConfig.Metrics,
// and export deterministic JSON via Snapshot().WriteJSON (cmd/distrun
// -metrics writes it to a file when the run ends). A nil registry disables
// telemetry at near-zero hot-path cost.
type (
	// MetricsRegistry names a set of instruments and renders deterministic
	// snapshots; see internal/metrics and DESIGN.md §10.
	MetricsRegistry = metrics.Registry
	// MetricsHistogram is one histogram's part of a registry snapshot;
	// its Quantile method estimates p50/p95/p99 from the log2 buckets.
	MetricsHistogram = metrics.HistogramSnapshot
)

// NewMetricsRegistry returns an empty enabled telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// FlightRecorder is the flight recorder, re-exported from internal/flight
// (DESIGN.md §12): a per-node bounded ring buffer of fixed-size protocol
// event records (machine transitions, message send/recv/drop, timer
// fires). Hand one to ClusterConfig.Flight to capture a run, then
// Snapshot() it into a dump for serialization or span stitching;
// cmd/tracez renders the dumps. A nil recorder disables capture at
// near-zero hot-path cost, exactly like a nil MetricsRegistry.
type FlightRecorder = flight.Recorder

// NewFlightRecorder returns a flight recorder with one ring of perNodeCap
// records (flight.DefaultRingCap if perNodeCap <= 0) per node.
func NewFlightRecorder(nodes, perNodeCap int) *FlightRecorder {
	return flight.New(nodes, perNodeCap)
}

// NewShardRuntime builds the decentralized runtime for rule on g with
// initial values x0: N nodes multiplexed over cfg.Shards event loops that
// exchange messages through in-process mailboxes. One simulated time unit lasts
// cfg.TimeScale of wall-clock time, so ShardRuntime.Run(ctx, t) is
// directly comparable to Simulate(g, alg, t, seed).
func NewShardRuntime(g *Graph, x0 []float64, rule ExchangeRule, cfg ShardRuntimeConfig) (*ShardRuntime, error) {
	return dist.NewShardRuntime(g, x0, rule, cfg)
}

// NewAveragingExchange returns the vanilla pairwise-averaging exchange
// rule: a committed exchange moves both endpoints to their mean.
func NewAveragingExchange() ExchangeRule { return dist.NewVanillaRule() }

// NewSparseCutExchange returns Algorithm A as an exchange rule: vanilla
// averaging inside the sides, no update on non-designated cut edges, and
// the non-convex swap at every epochTicks-th exchange proposed over
// cutEdge (the epoch counter advances when a responder computes the
// update, so under message loss a proposal that later aborts has still
// consumed a tick). ExactSwapWeight(part) is the usual coefficient; the
// paper's literal choice is min(|V1|, |V2|).
func NewSparseCutExchange(part *Partition, cutEdge EdgeID, epochTicks int64, weight float64) (ExchangeRule, error) {
	return dist.NewSparseCutRule(part, cutEdge, epochTicks, weight)
}
