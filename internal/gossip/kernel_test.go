package gossip

import (
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// refAlgorithm is an Algorithm with its reference update rule.
type refAlgorithm interface {
	Algorithm
	handler
}

// refBuilder builds one gossip algorithm afresh on each call, so a test
// can run the same algorithm on the engine and on the reference loop.
type refBuilder struct {
	name string
	make func() (refAlgorithm, error)
}

func refBuilders(g *graph.Graph, x0 []float64) []refBuilder {
	return []refBuilder{
		{"vanilla", func() (refAlgorithm, error) { return NewVanilla(g, x0) }},
		{"convex(0.3)", func() (refAlgorithm, error) { return NewConvex(g, x0, 0.3) }},
		{"push-sum", func() (refAlgorithm, error) { return NewPushSum(g, x0, rng.New(9)) }},
	}
}

// The fused batch loop (RunUntil + TickEdges) must produce bit-identical
// value trajectories to the per-event reference loop over HandleTick, for
// the same seed.
func TestKernelBitIdenticalToHandleTick(t *testing.T) {
	g, part, err := graph.Dumbbell(24, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	horizon := 20000 / float64(g.NumEdges()) // about 20,000 events
	for _, b := range refBuilders(g, x0) {
		legacy, err := b.make()
		if err != nil {
			t.Fatal(err)
		}
		fused, err := b.make()
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefClock(g, 42)
		engF, err := sim.NewEngine(g, fused, sim.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		ref.runUntil(legacy, horizon)
		tF, evF := engF.RunUntil(horizon)
		if ref.now != tF || ref.events != evF {
			t.Fatalf("%s: (t, events) = (%v, %d) reference vs (%v, %d) fused", b.name, ref.now, ref.events, tF, evF)
		}
		vL, vF := legacy.Values(), fused.Values()
		for i := range vL {
			if math.Float64bits(vL[i]) != math.Float64bits(vF[i]) {
				t.Fatalf("%s: value %d = %v legacy vs %v fused (not bit-identical)", b.name, i, vL[i], vF[i])
			}
		}
		// The fused path resyncs moments exactly, the reference maintains
		// them incrementally: they agree to float accumulation error.
		if d := relDiff(legacy.Variance(), fused.Variance()); d > 1e-9 {
			t.Errorf("%s: variance %v legacy vs %v fused (rel %g)", b.name, legacy.Variance(), fused.Variance(), d)
		}
		if d := relDiff(legacy.Mean(), fused.Mean()); d > 1e-9 {
			t.Errorf("%s: mean %v legacy vs %v fused (rel %g)", b.name, legacy.Mean(), fused.Mean(), d)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b || math.Abs(a-b) < 1e-12 {
		return 0 // agreement to absolute float-noise level
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// The fused two-point updates must be bit-identical to the Set sequences
// they replace, including the maintained moments: the tracked chunks' and
// push-sum's per-event arithmetic, one event at a time.
func TestFusedStateUpdatesMatchSetPairs(t *testing.T) {
	x0 := []float64{3, -1, 4, 1.5, -9, 2.6}
	r := rng.New(5)
	a, b := NewState(x0), NewState(x0)
	edge := []graph.EdgeID{0}
	for step := 0; step < 2000; step++ {
		i := r.Intn(len(x0))
		j := (i + 1 + r.Intn(len(x0)-1)) % len(x0)
		eu, ev := []int32{int32(i)}, []int32{int32(j)}
		switch step % 3 {
		case 0: // vanilla average
			averageRef(a, i, j)
			b.AverageEdgesTracked(edge, eu, ev, math.Inf(1))
		case 1: // convex
			// A float64 variable, not a constant: 1-alpha must round at
			// runtime exactly as the algorithm's field does.
			alpha := float64(0.7)
			convexRef(a, i, j, alpha)
			b.ConvexEdgesTracked(edge, eu, ev, alpha, math.Inf(1))
		default: // arbitrary two-point assignment
			vi, vj := a.Get(j)*1.25, a.Get(i)*0.75
			a.Set(i, vi)
			a.Set(j, vj)
			b.set2(i, j, vi, vj)
			b.endChunk(2)
		}
		for u := 0; u < a.N(); u++ {
			if math.Float64bits(a.Get(u)) != math.Float64bits(b.Get(u)) {
				t.Fatalf("step %d: value %d = %v vs %v", step, u, a.Get(u), b.Get(u))
			}
		}
		if math.Float64bits(a.Variance()) != math.Float64bits(b.Variance()) {
			t.Fatalf("step %d: variance %v vs %v", step, a.Variance(), b.Variance())
		}
	}
}

// The lazy batch updates must leave values bit-identical and the moments
// exact after the next read.
func TestLazyBatchUpdatesMatchEager(t *testing.T) {
	g, _, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, g.NumNodes())
	r := rng.New(77)
	for i := range x0 {
		x0[i] = r.Float64()*10 - 5
	}
	eager, lazy := NewState(x0), NewState(x0)
	edges := make([]graph.EdgeID, 500)
	for k := range edges {
		edges[k] = graph.EdgeID(r.Intn(g.NumEdges()))
	}
	eu, ev := g.EdgeU(), g.EdgeV()
	for _, e := range edges {
		averageRef(eager, int(eu[e]), int(ev[e]))
	}
	lazy.AverageEdgesLazy(edges, eu, ev)
	for u := 0; u < eager.N(); u++ {
		if math.Float64bits(eager.Get(u)) != math.Float64bits(lazy.Get(u)) {
			t.Fatalf("value %d = %v eager vs %v lazy", u, eager.Get(u), lazy.Get(u))
		}
	}
	if d := relDiff(eager.Variance(), lazy.Variance()); d > 1e-12 {
		t.Errorf("variance %v eager vs %v lazy", eager.Variance(), lazy.Variance())
	}
	if d := relDiff(eager.Mean(), lazy.Mean()); d > 1e-12 {
		t.Errorf("mean %v eager vs %v lazy", eager.Mean(), lazy.Mean())
	}
	if d := relDiff(eager.Sum(), lazy.Sum()); d > 1e-12 {
		t.Errorf("sum %v eager vs %v lazy", eager.Sum(), lazy.Sum())
	}

	// Convex lazy variant.
	eagerC, lazyC := NewState(x0), NewState(x0)
	for _, e := range edges {
		convexRef(eagerC, int(eu[e]), int(ev[e]), 0.8)
	}
	lazyC.ConvexEdgesLazy(edges, eu, ev, 0.8)
	for u := 0; u < eagerC.N(); u++ {
		if math.Float64bits(eagerC.Get(u)) != math.Float64bits(lazyC.Get(u)) {
			t.Fatalf("convex value %d = %v eager vs %v lazy", u, eagerC.Get(u), lazyC.Get(u))
		}
	}
	if d := relDiff(eagerC.Variance(), lazyC.Variance()); d > 1e-12 {
		t.Errorf("convex variance %v eager vs %v lazy", eagerC.Variance(), lazyC.Variance())
	}
}

func TestCopyInto(t *testing.T) {
	x0 := []float64{1, 2, 3, 4}
	s := NewState(x0)
	dst := make([]float64, 4)
	s.CopyInto(dst)
	vals := s.Values()
	for i := range vals {
		if math.Float64bits(dst[i]) != math.Float64bits(vals[i]) {
			t.Errorf("CopyInto[%d] = %v, Values = %v", i, dst[i], vals[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch not rejected")
		}
	}()
	s.CopyInto(make([]float64, 3))
}
