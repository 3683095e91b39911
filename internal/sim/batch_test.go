package sim

import (
	"math"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

func batchFixture(t *testing.T) (*graph.Graph, []float64) {
	t.Helper()
	g, part, err := graph.Dumbbell(12, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g, gossip.CutIndicator(part)
}

// replicaSeeds derives one stream seed per replica the way the avgtime
// estimator does: a fixed per-replica value independent of the batch
// grouping.
func replicaSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(1000 + 7*i)
	}
	return seeds
}

func streamsFor(seeds []uint64) []*rng.RNG {
	streams := make([]*rng.RNG, len(seeds))
	for i, s := range seeds {
		streams[i] = rng.New(s)
	}
	return streams
}

// A replica's trajectory must be byte-identical whether it runs alone
// (R=1) or interleaved in a wide batch (R=8) — values, clock and event
// count — on a run stopped by MaxTime alone.
func TestBatchEngineWidthDeterminism(t *testing.T) {
	g, x0 := batchFixture(t)
	seeds := replicaSeeds(8)
	horizon := Tracked{MaxTime: 5000 / float64(g.NumEdges())}

	wide, err := gossip.NewVanillaEnsemble(g, x0, len(seeds))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBatchEngine(g, wide, streamsFor(seeds))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunTracked(horizon)

	for rep, seed := range seeds {
		solo, err := gossip.NewVanillaEnsemble(g, x0, 1)
		if err != nil {
			t.Fatal(err)
		}
		soloEng, err := NewBatchEngine(g, solo, []*rng.RNG{rng.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		soloEng.RunTracked(horizon)
		a, b := wide.Values(rep), solo.Values(0)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("replica %d node %d: %v wide vs %v solo", rep, i, a[i], b[i])
			}
		}
		if w, s := eng.reps[rep], soloEng.reps[0]; w.now != s.now || w.events != s.events {
			t.Errorf("replica %d (clock, events): (%v, %d) wide vs (%v, %d) solo", rep, w.now, w.events, s.now, s.events)
		}
	}
}

// Same for the tracked loop: the per-replica TrackedResult (last
// exceedance time, censoring) must not depend on the batch width.
func TestBatchRunTrackedWidthDeterminism(t *testing.T) {
	g, x0 := batchFixture(t)
	seeds := replicaSeeds(6)
	probe, err := gossip.NewVanillaEnsemble(g, x0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var0 := probe.ReplicaVariance(0)
	cfg := Tracked{
		ExceedLevel: var0 * math.Exp(-2),
		StopLevel:   var0 * math.Exp(-2),
		Quiet:       1,
		MaxTime:     1e5,
	}

	wide, err := gossip.NewVanillaEnsemble(g, x0, len(seeds))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBatchEngine(g, wide, streamsFor(seeds))
	if err != nil {
		t.Fatal(err)
	}
	wideRes := eng.RunTracked(cfg)

	for rep, seed := range seeds {
		solo, err := gossip.NewVanillaEnsemble(g, x0, 1)
		if err != nil {
			t.Fatal(err)
		}
		soloEng, err := NewBatchEngine(g, solo, []*rng.RNG{rng.New(seed)})
		if err != nil {
			t.Fatal(err)
		}
		soloRes := soloEng.RunTracked(cfg)[0]
		if wideRes[rep] != soloRes {
			t.Errorf("replica %d: %+v wide vs %+v solo", rep, wideRes[rep], soloRes)
		}
		if wideRes[rep].LastExceed <= 0 {
			t.Errorf("replica %d: expected a positive last exceedance, got %v", rep, wideRes[rep].LastExceed)
		}
		if wideRes[rep].Censored {
			t.Errorf("replica %d: unexpectedly censored", rep)
		}
	}
}

// A tiny MaxTime must censor every replica; the horizon is honoured at
// chunk granularity.
func TestBatchRunTrackedCensors(t *testing.T) {
	g, x0 := batchFixture(t)
	ens, err := gossip.NewVanillaEnsemble(g, x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBatchEngine(g, ens, streamsFor(replicaSeeds(3)))
	if err != nil {
		t.Fatal(err)
	}
	var0 := ens.ReplicaVariance(0)
	res := eng.RunTracked(Tracked{
		ExceedLevel: var0 * math.Exp(-2),
		StopLevel:   var0 * 1e-12,
		Quiet:       1,
		MaxTime:     1e-3,
	})
	for rep, r := range res {
		if !r.Censored {
			t.Errorf("replica %d: expected censoring at MaxTime=1e-3", rep)
		}
	}
}

// Bridged clocks: after n events each replica's time is a Gamma(n) draw
// scaled by the mean gap, so the cross-replica average must match n/|E|
// within Monte-Carlo tolerance.
func TestBatchBridgedClockMean(t *testing.T) {
	g, _ := batchFixture(t)
	const replicas, events = 32, 4096
	kern := newCountingKernel(g, replicas, events/chunkSize)
	eng, err := NewBatchEngine(g, kern, streamsFor(replicaSeeds(replicas)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunTracked(kern.tracked())
	want := float64(events) / float64(g.NumEdges())
	mean := 0.0
	for rep := 0; rep < replicas; rep++ {
		mean += eng.reps[rep].now
	}
	mean /= replicas
	// Each replica clock has sd want/sqrt(events); the mean of 32 shrinks
	// it by another sqrt(32). Allow 5 sigma.
	tol := 5 * want / math.Sqrt(float64(events)*replicas)
	if math.Abs(mean-want) > tol {
		t.Errorf("mean replica clock %v, want %v ± %v", mean, want, tol)
	}
	if eng.Events() != int64(replicas*events) {
		t.Errorf("total events %d, want %d", eng.Events(), replicas*events)
	}
}

// countingKernel tallies edge picks, and reports a variance of 1 for the
// first budget chunks of each replica and 0 after, so that under its
// tracked() stop rule every replica advances by exactly budget chunks.
type countingKernel struct {
	budget int
	counts []int64
	chunks []int // per replica
}

func newCountingKernel(g *graph.Graph, replicas, budget int) *countingKernel {
	return &countingKernel{budget: budget, counts: make([]int64, g.NumEdges()), chunks: make([]int, replicas)}
}

func (k *countingKernel) Replicas() int { return len(k.chunks) }
func (k *countingKernel) TickChunkTracked(rep int, edges []graph.EdgeID, _ float64) (int, float64) {
	for _, e := range edges {
		k.counts[e]++
	}
	k.chunks[rep]++
	return -1, k.ReplicaVariance(rep)
}
func (k *countingKernel) ReplicaVariance(rep int) float64 {
	if k.chunks[rep] < k.budget {
		return 1
	}
	return 0
}

// tracked stops a replica once its variance reads 0, with no exceedances
// and no quiet period.
func (k *countingKernel) tracked() Tracked {
	return Tracked{ExceedLevel: 2, StopLevel: 0.5, MaxTime: math.Inf(1)}
}

// Heterogeneous rates route picks through the shared alias table: edge
// frequencies must be proportional to the rates.
func TestBatchEngineHeterogeneousRates(t *testing.T) {
	g, _ := batchFixture(t)
	rates := make([]float64, g.NumEdges())
	r := rng.New(3)
	total := 0.0
	for i := range rates {
		rates[i] = 0.5 + 1.5*r.Float64()
		total += rates[i]
	}
	const replicas, budget = 4, 196
	const events = replicas * budget * chunkSize // ~200,000
	kern := newCountingKernel(g, replicas, budget)
	eng, err := NewBatchEngine(g, kern, streamsFor(replicaSeeds(replicas)), WithBatchRates(rates))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunTracked(kern.tracked())
	if eng.Events() != events {
		t.Fatalf("ran %d events, want %d", eng.Events(), events)
	}
	for e, rate := range rates {
		want := float64(events) * rate / total
		if sigma := math.Sqrt(want); math.Abs(float64(kern.counts[e])-want) > 6*sigma {
			t.Errorf("edge %d picked %d times, want ~%.0f", e, kern.counts[e], want)
		}
	}
}

func TestBatchEngineValidation(t *testing.T) {
	g, x0 := batchFixture(t)
	ens, err := gossip.NewVanillaEnsemble(g, x0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchEngine(g, nil, streamsFor(replicaSeeds(2))); err == nil {
		t.Error("nil kernel not rejected")
	}
	if _, err := NewBatchEngine(g, ens, streamsFor(replicaSeeds(3))); err == nil {
		t.Error("stream/replica count mismatch not rejected")
	}
	if _, err := NewBatchEngine(g, ens, []*rng.RNG{rng.New(1), nil}); err == nil {
		t.Error("nil stream not rejected")
	}
	if _, err := NewBatchEngine(g, ens, streamsFor(replicaSeeds(2)), WithBatchRates([]float64{1})); err == nil {
		t.Error("rate length mismatch not rejected")
	}
	bad := make([]float64, g.NumEdges())
	for i := range bad {
		bad[i] = 1
	}
	bad[3] = -2
	if _, err := NewBatchEngine(g, ens, streamsFor(replicaSeeds(2)), WithBatchRates(bad)); err == nil {
		t.Error("negative rate not rejected")
	}
}

// An installed observer must be telemetry-only: replica trajectories stay
// byte-identical on a run stopped by MaxTime alone, the meters it sees are
// monotone, and the final reading matches the engine's own accounting.
func TestBatchObserverInert(t *testing.T) {
	g, x0 := batchFixture(t)
	seeds := replicaSeeds(4)
	horizon := Tracked{MaxTime: 3000 / float64(g.NumEdges())}

	run := func(opts ...BatchOption) (*gossip.Ensemble, *BatchEngine) {
		kern, err := gossip.NewVanillaEnsemble(g, x0, len(seeds))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewBatchEngine(g, kern, streamsFor(seeds), opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunTracked(horizon)
		return kern, eng
	}

	plain, plainEng := run()
	var got []BatchStats
	observed, obsEng := run(WithBatchObserver(func(st BatchStats) {
		got = append(got, st)
	}))

	for rep := range seeds {
		a, b := plain.Values(rep), observed.Values(rep)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("replica %d node %d diverged under observation: %v vs %v", rep, i, a[i], b[i])
			}
		}
		if plainEng.reps[rep].now != obsEng.reps[rep].now {
			t.Errorf("replica %d clock diverged under observation", rep)
		}
	}
	if len(got) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Events <= got[i-1].Events || got[i].Chunks <= got[i-1].Chunks {
			t.Errorf("meter not monotone: %+v then %+v", got[i-1], got[i])
		}
	}
	last := got[len(got)-1]
	if last.Events != obsEng.Events() || last.Chunks != obsEng.chunks {
		t.Errorf("final observation %+v != engine accounting (events %d, chunks %d)",
			last, obsEng.Events(), obsEng.chunks)
	}
	for _, st := range got {
		if st.Active < 1 || st.Active > len(seeds) {
			t.Errorf("active count %d outside [1,%d]", st.Active, len(seeds))
		}
		if !(st.Now > 0) {
			t.Errorf("non-positive trailing time %v", st.Now)
		}
	}
}

// Same contract for the tracked loop, where occupancy decays as replicas
// hit their stop rule.
func TestBatchObserverInertTracked(t *testing.T) {
	g, x0 := batchFixture(t)
	seeds := replicaSeeds(4)
	probe, err := gossip.NewVanillaEnsemble(g, x0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var0 := probe.ReplicaVariance(0)
	cfg := Tracked{
		ExceedLevel: var0 * math.Exp(-2),
		StopLevel:   var0 * math.Exp(-2),
		Quiet:       1,
		MaxTime:     1e5,
	}

	run := func(opts ...BatchOption) []TrackedResult {
		kern, err := gossip.NewVanillaEnsemble(g, x0, len(seeds))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewBatchEngine(g, kern, streamsFor(seeds), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return eng.RunTracked(cfg)
	}

	plain := run()
	calls := 0
	maxActive := 0
	observed := run(WithBatchObserver(func(st BatchStats) {
		calls++
		if st.Active > maxActive {
			maxActive = st.Active
		}
	}))
	for rep := range plain {
		if plain[rep] != observed[rep] {
			t.Errorf("replica %d tracked result diverged under observation: %+v vs %+v",
				rep, plain[rep], observed[rep])
		}
	}
	if calls == 0 {
		t.Fatal("observer never called")
	}
	if maxActive != len(seeds) {
		t.Errorf("peak occupancy %d, want %d", maxActive, len(seeds))
	}
}
