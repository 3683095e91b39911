package gossip

import (
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// randomPicks returns a deterministic pseudo-random edge sequence.
func randomPicks(seed uint64, g *graph.Graph, n int) []graph.EdgeID {
	r := rng.New(seed)
	picks := make([]graph.EdgeID, n)
	for i := range picks {
		picks[i] = graph.EdgeID(r.Intn(g.NumEdges()))
	}
	return picks
}

// The tracked chunks of an ensemble replica must be bit-identical to the
// per-event Get/Set reference: same values, same moments, same variance — for
// vanilla and convex, on a replica other than 0 (so replica addressing is
// exercised).
func TestBatchTrackedBitIdenticalToState(t *testing.T) {
	g, part, err := graph.Dumbbell(9, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	eu, ev := g.EdgeU(), g.EdgeV()
	picks := randomPicks(5, g, 4096)
	const rep = 2

	t.Run("vanilla", func(t *testing.T) {
		st := NewState(x0)
		ens, err := NewVanillaEnsemble(g, x0, 3)
		if err != nil {
			t.Fatal(err)
		}
		level := st.Variance() * math.Exp(-2)
		for lo := 0; lo < len(picks); lo += 256 {
			ens.TickChunkTracked(rep, picks[lo:lo+256], level)
		}
		for _, e := range picks {
			averageRef(st, int(eu[e]), int(ev[e]))
		}
		compareReplicaToState(t, ens, rep, st)
	})

	t.Run("convex", func(t *testing.T) {
		const alpha = 0.73
		st := NewState(x0)
		ens, err := NewConvexEnsemble(g, x0, alpha, 3)
		if err != nil {
			t.Fatal(err)
		}
		level := st.Variance() * math.Exp(-2)
		for lo := 0; lo < len(picks); lo += 256 {
			ens.TickChunkTracked(rep, picks[lo:lo+256], level)
		}
		for _, e := range picks {
			convexRef(st, int(eu[e]), int(ev[e]), alpha)
		}
		compareReplicaToState(t, ens, rep, st)
	})
}

func compareReplicaToState(t *testing.T, ens *Ensemble, rep int, st *State) {
	t.Helper()
	row := ens.Values(rep)
	want := st.Values()
	for i := range row {
		if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: %v batched vs %v state", i, row[i], want[i])
		}
	}
	if gotV, wantV := ens.ReplicaVariance(rep), st.Variance(); math.Float64bits(gotV) != math.Float64bits(wantV) {
		t.Errorf("variance %v batched vs %v state", gotV, wantV)
	}
	if gotM, wantM := ens.runs[rep].Mean(), st.Mean(); math.Float64bits(gotM) != math.Float64bits(wantM) {
		t.Errorf("mean %v batched vs %v state", gotM, wantM)
	}
}

// Convex gossip at α = ½ must be the vanilla update bit for bit on
// normal-range values: values, moments, last-exceedance indices and chunk
// variances of the tracked and lazy ensemble chunks, and the values and
// moments of the per-event Get/Set references. Near underflow halving rounds,
// so scenario builds the vanilla kernel for convex α = ½ rather than
// leaning on this identity; the test pins the identity the shared
// estimates of sweep.Cache would otherwise rest on.
func TestConvexHalfIsVanilla(t *testing.T) {
	g, part, err := graph.Dumbbell(9, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	eu, ev := g.EdgeU(), g.EdgeV()
	for si, scale := range []float64{1, 1e-150, 1e150} {
		r := rng.New(uint64(si) + 3)
		x0 := GaussianRandom(r, g.NumNodes())
		for u := range x0 {
			if part.SideOf(graph.NodeID(u)) == graph.Side1 {
				x0[u] += 5 // a cut imbalance, so the variance decays slowly
			}
			x0[u] *= scale
		}
		level := NewState(x0).Variance() * math.Exp(-2)
		const rep = 1
		van, cvx := mustEnsemble(NewVanillaEnsemble(g, x0, 2)), mustEnsemble(NewConvexEnsemble(g, x0, 0.5, 2))
		vanLazy, cvxLazy := mustEnsemble(NewVanillaEnsemble(g, x0, 2)), mustEnsemble(NewConvexEnsemble(g, x0, 0.5, 2))
		vanSt, cvxSt := NewState(x0), NewState(x0)
		picks := randomPicks(7, g, 8192)
		exceeded, quiet := false, false
		for lo := 0; lo < len(picks); {
			hi := min(len(picks), lo+1+r.Intn(300))
			chunk := picks[lo:hi]
			vi, vv := van.TickChunkTracked(rep, chunk, level)
			ci, cv := cvx.TickChunkTracked(rep, chunk, level)
			if vi != ci || math.Float64bits(vv) != math.Float64bits(cv) {
				t.Fatalf("scale %g, chunk at %d: (lastIdx %d, endVar %v) vanilla vs (%d, %v) convex", scale, lo, vi, vv, ci, cv)
			}
			exceeded = exceeded || vi >= 0
			quiet = quiet || vi < 0
			vanLazy.runs[rep].TickEdges(chunk)
			cvxLazy.runs[rep].TickEdges(chunk)
			for _, e := range chunk {
				averageRef(vanSt, int(eu[e]), int(ev[e]))
				convexRef(cvxSt, int(eu[e]), int(ev[e]), 0.5)
			}
			lo = hi
		}
		if !exceeded || !quiet {
			t.Fatalf("scale %g: chunks exceeded %v, quiet %v; want both", scale, exceeded, quiet)
		}
		for _, pair := range [][2]*Ensemble{{van, cvx}, {vanLazy, cvxLazy}} {
			a, b := stateOf(pair[0].runs[rep]), stateOf(pair[1].runs[rep])
			if !sameBits(a.y, b.y) || !sameBits([]float64{a.sum, a.sumSq}, []float64{b.sum, b.sumSq}) {
				t.Errorf("scale %g: replica values or moments differ between vanilla and convex(1/2)", scale)
			}
		}
		if !sameBits(vanSt.y, cvxSt.y) || !sameBits([]float64{vanSt.sum, vanSt.sumSq}, []float64{cvxSt.sum, cvxSt.sumSq}) {
			t.Errorf("scale %g: the Get/Set vanilla and convex(1/2) references differ", scale)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stateOf returns the State a gossip run keeps its values in.
func stateOf(r Algorithm) *State {
	switch r := r.(type) {
	case *Vanilla:
		return r.st
	case *Convex:
		return r.st
	case *PushSum:
		return r.est
	}
	panic("gossip: not a gossip run")
}

// mustEnsemble unwraps an ensemble constructor's result in a test.
func mustEnsemble(e *Ensemble, err error) *Ensemble {
	if err != nil {
		panic(err)
	}
	return e
}

// The untracked chunks must store the same values as the tracked ones;
// their deferred moments resync exactly on the next read.
func TestBatchLazyMatchesTracked(t *testing.T) {
	g, part, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	picks := randomPicks(11, g, 2048)

	lazy := mustEnsemble(NewVanillaEnsemble(g, x0, 2))
	eager := mustEnsemble(NewVanillaEnsemble(g, x0, 2))
	for lo := 0; lo < len(picks); lo += 256 {
		lazy.runs[1].TickEdges(picks[lo : lo+256])
		eager.TickChunkTracked(1, picks[lo:lo+256], 0.1)
	}
	a, b := lazy.Values(1), eager.Values(1)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("node %d: %v lazy vs %v tracked", i, a[i], b[i])
		}
	}
	// The lazy read resyncs exactly; the eager moments carry float drift
	// bounded far below any threshold the estimator compares against.
	if lv, ev2 := lazy.ReplicaVariance(1), eager.ReplicaVariance(1); math.Abs(lv-ev2) > 1e-12 {
		t.Errorf("variance %v lazy vs %v tracked", lv, ev2)
	}
}

// The last-exceedance index returned by the tracked chunk must match a
// per-event replay against State.Variance.
func TestBatchTrackedLastIndex(t *testing.T) {
	g, part, err := graph.Dumbbell(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	eu, ev := g.EdgeU(), g.EdgeV()
	st := NewState(x0)
	level := st.Variance() * math.Exp(-2)

	ens := mustEnsemble(NewVanillaEnsemble(g, x0, 1))
	picks := randomPicks(3, g, 8192)
	for lo := 0; lo < len(picks); lo += 256 {
		chunk := picks[lo : lo+256]
		gotIdx, _ := ens.TickChunkTracked(0, chunk, level)
		wantIdx := -1
		for k, e := range chunk {
			averageRef(st, int(eu[e]), int(ev[e]))
			if st.Variance() > level {
				wantIdx = k
			}
		}
		if gotIdx != wantIdx {
			t.Fatalf("chunk at %d: last exceedance index %d batched vs %d replay", lo, gotIdx, wantIdx)
		}
	}
}

// The push-sum ensemble must replay the legacy PushSum bit-for-bit when
// driven by the same direction stream and edge sequence.
func TestPushSumEnsembleMatchesLegacy(t *testing.T) {
	g, part, err := graph.Dumbbell(7, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	picks := randomPicks(9, g, 3000)

	legacy, err := NewPushSum(g, x0, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ens, err := NewPushSumEnsemble(g, x0, []*rng.RNG{rng.New(41), rng.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	level := legacy.Variance() * math.Exp(-2)
	for lo := 0; lo < len(picks); lo += 256 {
		hi := min(lo+256, len(picks))
		ens.TickChunkTracked(1, picks[lo:hi], level)
	}
	for _, e := range picks {
		legacy.HandleTick(e, 0)
	}
	got := ens.Values(1)
	want := legacy.Values()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("node %d: %v ensemble vs %v legacy", i, got[i], want[i])
		}
	}
	if gv, wv := ens.ReplicaVariance(1), legacy.Variance(); math.Abs(gv-wv) > 1e-12 {
		t.Errorf("variance %v ensemble vs %v legacy", gv, wv)
	}
}

// Replicas must be fully independent: an untouched replica keeps its
// initial row while its neighbours evolve.
func TestBatchReplicaIsolation(t *testing.T) {
	g, part, err := graph.Dumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	ens, err := NewVanillaEnsemble(g, x0, 3)
	if err != nil {
		t.Fatal(err)
	}
	picks := randomPicks(77, g, 512)
	ens.runs[0].TickEdges(picks[:256])
	ens.runs[2].TickEdges(picks[256:])
	row := ens.Values(1)
	for i, v := range row {
		if v != x0[i] {
			t.Fatalf("untouched replica drifted at node %d: %v != %v", i, v, x0[i])
		}
	}
	v0 := NewState(x0).Variance()
	if ens.ReplicaVariance(0) >= v0 || ens.ReplicaVariance(2) >= v0 {
		t.Error("ticked replicas should have reduced variance")
	}
}

// Ensemble constructors must validate their inputs.
func TestEnsembleValidation(t *testing.T) {
	g, part, err := graph.Dumbbell(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := CutIndicator(part)
	if _, err := NewVanillaEnsemble(g, x0[:3], 2); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := NewVanillaEnsemble(g, x0, 0); err == nil {
		t.Error("zero replicas not rejected")
	}
	if _, err := NewConvexEnsemble(g, x0, 1.5, 2); err == nil {
		t.Error("alpha > 1 not rejected")
	}
	if _, err := NewPushSumEnsemble(g, x0, nil); err == nil {
		t.Error("empty stream list not rejected")
	}
	if _, err := NewPushSumEnsemble(g, x0, []*rng.RNG{rng.New(1), nil}); err == nil {
		t.Error("nil stream not rejected")
	}
}
