package sparsecut

// Benchmark harness: one testing.B benchmark per evaluation experiment
// (E1–E15, see DESIGN.md §4) plus micro-benchmarks of the hot paths.
//
// The experiment benchmarks run the quick-mode workload once per iteration
// and report each experiment's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates a compact, machine-readable version of the entire evaluation.
// The full bound-checked document is produced by `go run ./cmd/repro`.

import (
	"math"
	"strings"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/report"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
)

// benchExperiment runs one experiment per iteration and republishes its
// metrics as benchmark outputs.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	e, ok := report.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		sec, err := e.RunEntry(report.Params{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = sec.MetricMap()
	}
	for _, m := range metrics {
		if v, ok := last[m]; ok {
			// testing.B forbids whitespace in metric units.
			unit := strings.NewReplacer(" ", "_", "(", "", ")", "", ".", "").Replace(m)
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkE1ConvexLowerBoundScaling(b *testing.B) {
	benchExperiment(b, "E1", "slope")
}

func BenchmarkE2CutSizeScaling(b *testing.B) {
	benchExperiment(b, "E2", "slope")
}

func BenchmarkE3AlgorithmAScaling(b *testing.B) {
	benchExperiment(b, "E3", "slope")
}

func BenchmarkE4HeadlineSeparation(b *testing.B) {
	benchExperiment(b, "E4", "speedup@64", "speedup-growth")
}

func BenchmarkE5VarianceTrajectories(b *testing.B) {
	benchExperiment(b, "E5", "final-ratio-vanilla", "final-ratio-algorithm-A")
}

func BenchmarkE6StochasticDominance(b *testing.B) {
	benchExperiment(b, "E6", "frac-weak", "hard-violations")
}

func BenchmarkE7SubGaussianTail(b *testing.B) {
	benchExperiment(b, "E7", "beta", "r2")
}

func BenchmarkE8WeightAblation(b *testing.B) {
	benchExperiment(b, "E8", "contraction-symmetric-n1 (paper)")
}

func BenchmarkE9EpochConstantSweep(b *testing.B) {
	benchExperiment(b, "E9", "K-spectral")
}

func BenchmarkE10RealisticGraphs(b *testing.B) {
	benchExperiment(b, "E10", "speedup-planted", "speedup-sensor")
}

func BenchmarkE11DiffusionBaseline(b *testing.B) {
	benchExperiment(b, "E11", "rounds-first", "rounds-second", "rounds-A-equivalent")
}

func BenchmarkE12DistributedRule(b *testing.B) {
	benchExperiment(b, "E12", "ratio@sim", "max-divergence")
}

func BenchmarkE13TimingModels(b *testing.B) {
	benchExperiment(b, "E13", "speedup-uniform", "speedup-nodeclock")
}

func BenchmarkE14AllCutEdges(b *testing.B) {
	benchExperiment(b, "E14", "gain@k=4")
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkSimulatorVanillaTick measures raw event throughput of the
// event-driven simulator running vanilla gossip on a dumbbell — the fused
// kernel path (RunEvents), which is what Simulate and the averaging-time
// estimator drive.
func BenchmarkSimulatorVanillaTick(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkSimulatorVanillaTickLegacy measures the same workload through
// the generic Run loop (per-event virtual dispatch, closure stop
// condition) — the pre-kernel hot path, kept for comparison.
func BenchmarkSimulatorVanillaTickLegacy(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.Run(sim.MaxEvents(int64(b.N)))
}

// BenchmarkSimulatorTrackedVanilla measures the averaging-time estimator's
// per-event cost: the fused tracked loop with one moment read per event.
func BenchmarkSimulatorTrackedVanilla(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// StopLevel -1 is unreachable, so the loop runs to MaxTime; at total
	// rate |E| that horizon yields ~b.N events.
	if _, ok := eng.RunTracked(sim.Tracked{ExceedLevel: 0, StopLevel: -1, Quiet: 0, MaxTime: float64(b.N) / float64(g.NumEdges())}); !ok {
		b.Fatal("tracked fast path unavailable")
	}
	b.ReportMetric(float64(eng.Events())/float64(b.N), "events/op")
}

// BenchmarkSimulatorVanillaBatchBridged measures the replica-batched
// untracked hot path: 16 replicas in SoA lockstep, one uniform pick per
// event, one Gamma bridge draw per 256-event chunk.
func BenchmarkSimulatorVanillaBatchBridged(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	const replicas = 16
	ens, err := gossip.NewVanillaEnsemble(g, gossip.CutIndicator(part), replicas)
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(1)
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = root.Split()
	}
	eng, err := sim.NewBatchEngine(g, ens, streams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents((int64(b.N) + replicas - 1) / replicas)
}

// BenchmarkSimulatorVanillaBatchTracked measures the replica-batched
// averaging-time loop: eager per-event moments and exceedance compares on
// the SoA rows, chunk-bridged clocks.
func BenchmarkSimulatorVanillaBatchTracked(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	const replicas = 16
	ens, err := gossip.NewVanillaEnsemble(g, gossip.CutIndicator(part), replicas)
	if err != nil {
		b.Fatal(err)
	}
	root := rng.New(1)
	streams := make([]*rng.RNG, replicas)
	for i := range streams {
		streams[i] = root.Split()
	}
	eng, err := sim.NewBatchEngine(g, ens, streams)
	if err != nil {
		b.Fatal(err)
	}
	var0 := ens.ReplicaVariance(0)
	b.ResetTimer()
	eng.RunTracked(sim.Tracked{
		ExceedLevel: var0 * math.Exp(-2),
		StopLevel:   -1, // unreachable: run every replica to the horizon
		MaxTime:     float64(b.N) / float64(replicas*g.NumEdges()),
	})
}

// BenchmarkSimulatorHeterogeneousAlias measures the fused path under
// per-edge rates drawn from [0.5, 2): each event picks its edge from the
// Walker alias table instead of the uniform pick.
func BenchmarkSimulatorHeterogeneousAlias(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := gossip.NewVanilla(g, gossip.CutIndicator(part))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	rates := make([]float64, g.NumEdges())
	for i := range rates {
		rates[i] = 0.5 + 1.5*r.Float64()
	}
	eng, err := sim.NewEngine(g, alg, sim.WithRates(rates))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkAlgorithmATick measures Algorithm A's per-event cost including
// the O(1) variance tracking.
func BenchmarkAlgorithmATick(b *testing.B) {
	g, part, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := NewAlgorithmA(g, gossip.CutIndicator(part), WithPartition(part))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := sim.NewEngine(g, alg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	eng.RunEvents(int64(b.N))
}

// BenchmarkLambda2Dumbbell measures the spectral cut-analysis cost that
// Algorithm A's auto-configuration pays once per graph.
func BenchmarkLambda2Dumbbell(b *testing.B) {
	g, _, err := graph.Dumbbell(64, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spectral.Lambda2(g, spectral.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
