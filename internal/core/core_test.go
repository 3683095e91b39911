package core

import (
	"math"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
)

func dumbbell(t *testing.T, n1, n2, cutEdges int) (*graph.Graph, *graph.Partition) {
	t.Helper()
	g, p, err := graph.Dumbbell(n1, n2, cutEdges)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestWeightRuleStrings(t *testing.T) {
	for _, r := range []WeightRule{WeightExact, WeightPaper, WeightCustom, WeightRule(9)} {
		if r.String() == "" {
			t.Errorf("empty name for rule %d", int(r))
		}
	}
}

func TestExactWeightValues(t *testing.T) {
	_, p := dumbbell(t, 4, 4, 1)
	if got := ExactWeight(p); got != 2 {
		t.Errorf("ExactWeight(4,4) = %v, want 2", got)
	}
	if got := PaperWeight(p); got != 4 {
		t.Errorf("PaperWeight(4,4) = %v, want 4", got)
	}
	_, p2 := dumbbell(t, 2, 8, 1)
	if got := ExactWeight(p2); got != 1.6 {
		t.Errorf("ExactWeight(2,8) = %v, want 1.6", got)
	}
	if got := PaperWeight(p2); got != 2 {
		t.Errorf("PaperWeight(2,8) = %v, want 2", got)
	}
}

func TestNewValidation(t *testing.T) {
	g, p := dumbbell(t, 4, 4, 1)
	x0 := gossip.CutIndicator(p)

	if _, err := New(g, x0[:3], WithPartition(p)); err == nil {
		t.Error("length mismatch not rejected")
	}
	other, _ := dumbbell(t, 3, 3, 1)
	otherPart, err := graph.PartitionByPrefix(other, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, x0, WithPartition(otherPart)); err == nil {
		t.Error("foreign partition not rejected")
	}
	if _, err := New(g, x0, WithPartition(p), WithWeight(-1)); err == nil {
		t.Error("negative custom weight not rejected")
	}
	if _, err := New(g, x0, WithPartition(p), WithEpochTicks(-5)); err == nil {
		t.Error("negative epoch not rejected")
	}
	if _, err := New(g, x0, WithPartition(p), WithEpochConstant(-1)); err == nil {
		t.Error("negative epoch constant not rejected")
	}
	if _, err := New(g, x0, WithPartition(p), WithTvan(math.Inf(1), 0)); err == nil {
		t.Error("infinite Tvan not rejected")
	}
}

func TestNewDefaults(t *testing.T) {
	g, p := dumbbell(t, 8, 8, 1)
	a, err := New(g, gossip.CutIndicator(p), WithPartition(p))
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight() != ExactWeight(p) {
		t.Errorf("default weight %v, want exact %v", a.Weight(), ExactWeight(p))
	}
	if a.EpochTicks() < 1 {
		t.Errorf("epoch %d < 1", a.EpochTicks())
	}
	if a.CutEdge() != p.CutEdges()[0] {
		t.Error("default ec is not the designated cut edge")
	}
	if a.Name() == "" {
		t.Error("empty name")
	}
	if a.EpochDuration() != float64(a.EpochTicks()) {
		t.Error("epoch duration should equal K for a single rate-1 ec")
	}
}

func TestAutoDetectPartition(t *testing.T) {
	g, planted := dumbbell(t, 8, 8, 1)
	a, err := New(g, gossip.CutIndicator(planted))
	if err != nil {
		t.Fatal(err)
	}
	if a.Partition().CutSize() != 1 {
		t.Errorf("auto-detected cut size %d, want 1", a.Partition().CutSize())
	}
}

func TestSwapAnnihilatesSideMeansExactWeight(t *testing.T) {
	// With both sides perfectly mixed, a single exact-weight swap must land
	// both side means on the global mean.
	g, p := dumbbell(t, 6, 10, 1)
	x0 := make([]float64, 16)
	for u := 0; u < 6; u++ {
		x0[u] = 3 // µ1 = 3
	}
	for u := 6; u < 16; u++ {
		x0[u] = -1 // µ2 = -1; global mean = (18-10)/16 = 0.5
	}
	a, err := New(g, x0, WithPartition(p), WithEpochTicks(1))
	if err != nil {
		t.Fatal(err)
	}
	ec := a.CutEdge()
	tickOne(a, ec) // first tick of ec fires the swap (1 % 1 == 0)
	mu1, mu2 := a.SideMeans()
	if math.Abs(mu1-0.5) > 1e-12 || math.Abs(mu2-0.5) > 1e-12 {
		t.Errorf("side means after exact swap = (%v, %v), want (0.5, 0.5)", mu1, mu2)
	}
	if a.Swaps() != 1 {
		t.Errorf("swaps = %d", a.Swaps())
	}
}

func TestSwapPaperWeightExchangesMeansOnEqualSides(t *testing.T) {
	// The documented failure mode: literal w = n1 on n1 = n2 swaps the two
	// side means instead of annihilating them.
	g, p := dumbbell(t, 6, 6, 1)
	x0 := make([]float64, 12)
	for u := 0; u < 6; u++ {
		x0[u] = 1
	}
	for u := 6; u < 12; u++ {
		x0[u] = -1
	}
	a, err := New(g, x0, WithPartition(p), WithEpochTicks(1), WithWeightRule(WeightPaper))
	if err != nil {
		t.Fatal(err)
	}
	tickOne(a, a.CutEdge())
	mu1, mu2 := a.SideMeans()
	if math.Abs(mu1-(-1)) > 1e-12 || math.Abs(mu2-1) > 1e-12 {
		t.Errorf("paper-weight swap on equal sides gave (%v, %v), want (-1, 1)", mu1, mu2)
	}
}

func TestSwapPreservesSum(t *testing.T) {
	g, p := dumbbell(t, 5, 9, 2)
	x0 := gossip.CutIndicator(p)
	for _, rule := range []WeightRule{WeightExact, WeightPaper} {
		a, err := New(g, x0, WithPartition(p), WithEpochTicks(1), WithWeightRule(rule))
		if err != nil {
			t.Fatal(err)
		}
		sum0 := a.Mean() * float64(g.NumNodes())
		for k := 0; k < 10; k++ {
			tickOne(a, a.CutEdge())
		}
		if math.Abs(a.Mean()*float64(g.NumNodes())-sum0) > 1e-9 {
			t.Errorf("rule %v: sum drifted", rule)
		}
	}
}

func TestNonDesignatedCutEdgeIsNoOp(t *testing.T) {
	g, p := dumbbell(t, 4, 4, 2)
	x0 := gossip.CutIndicator(p)
	a, err := New(g, x0, WithPartition(p), WithEpochTicks(1))
	if err != nil {
		t.Fatal(err)
	}
	var other graph.EdgeID = -1
	for _, id := range p.CutEdges() {
		if id != a.CutEdge() {
			other = id
		}
	}
	if other < 0 {
		t.Fatal("no non-designated cut edge")
	}
	before := a.Values()
	tickOne(a, other)
	after := a.Values()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("non-designated cut edge changed node %d", i)
		}
	}
}

func TestInternalEdgeAverages(t *testing.T) {
	g, p := dumbbell(t, 3, 3, 1)
	x0 := []float64{6, 0, 0, 1, 1, 1}
	a, err := New(g, x0, WithPartition(p))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.FindEdge(0, 1)
	if !ok {
		t.Fatal("edge 0-1 missing")
	}
	tickOne(a, e)
	vals := a.Values()
	if vals[0] != 3 || vals[1] != 3 {
		t.Errorf("internal tick gave %v", vals[:2])
	}
}

func TestSwapOnlyEveryKthTick(t *testing.T) {
	g, p := dumbbell(t, 4, 4, 1)
	a, err := New(g, gossip.CutIndicator(p), WithPartition(p), WithEpochTicks(5))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 14; k++ {
		tickOne(a, a.CutEdge())
	}
	if a.Swaps() != 2 { // ticks 5 and 10
		t.Errorf("swaps = %d after 14 ticks with K=5, want 2", a.Swaps())
	}
}

func TestSwapListener(t *testing.T) {
	g, p := dumbbell(t, 4, 4, 1)
	var events []SwapEvent
	a, err := New(g, gossip.CutIndicator(p), WithPartition(p), WithEpochTicks(2),
		WithSwapListener(func(ev SwapEvent) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		a.TickEdges([]graph.EdgeID{a.CutEdge()})
	}
	if len(events) != 3 {
		t.Fatalf("listener saw %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Index != int64(i+1) {
			t.Errorf("event %d has index %d", i, ev.Index)
		}
		if ev.VarBefore < 0 || ev.VarAfter < 0 {
			t.Error("negative variance in event")
		}
	}
}

func TestConvergesOnDumbbellFast(t *testing.T) {
	// End-to-end: Algorithm A on a symmetric dumbbell with the worst-case
	// initial vector converges to variance ~0 and preserves the mean.
	g, p := dumbbell(t, 16, 16, 1)
	x0 := gossip.CutIndicator(p)
	a, err := New(g, x0, WithPartition(p))
	if err != nil {
		t.Fatal(err)
	}
	var0 := a.Variance()
	mean0 := a.Mean()
	eng, err := sim.NewEngine(g, a, sim.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	// Generous horizon: a handful of epochs.
	eng.RunUntil(20 * a.EpochDuration())
	if a.Variance() > 1e-6*var0 {
		t.Errorf("variance ratio %v after 20 epochs", a.Variance()/var0)
	}
	if math.Abs(a.Mean()-mean0) > 1e-9 {
		t.Errorf("mean drifted %v -> %v", mean0, a.Mean())
	}
	if a.Swaps() == 0 {
		t.Error("no swaps fired")
	}
}

func TestAllCutEdgesMode(t *testing.T) {
	g, p := dumbbell(t, 8, 8, 4)
	x0 := gossip.CutIndicator(p)
	a, err := New(g, x0, WithPartition(p), WithEpochTicks(4), WithAllCutEdges())
	if err != nil {
		t.Fatal(err)
	}
	if a.CutEdge() != -1 {
		t.Error("all-cut-edges mode should report ec = -1")
	}
	if a.EpochDuration() != 1 { // K=4 over 4 cut edges
		t.Errorf("epoch duration %v, want 1", a.EpochDuration())
	}
	// Ticking each of the 4 cut edges once gives 4 shared ticks = 1 swap.
	for _, id := range p.CutEdges() {
		tickOne(a, id)
	}
	if a.Swaps() != 1 {
		t.Errorf("swaps = %d, want 1", a.Swaps())
	}
}

func TestSideTvanBounds(t *testing.T) {
	_, p := dumbbell(t, 8, 16, 1)
	tv1, tv2, err := SideTvanBounds(p, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// K_8 bound 6/8, K_16 bound 6/16.
	if math.Abs(tv1-0.75) > 1e-6 {
		t.Errorf("tvan1 = %v, want 0.75", tv1)
	}
	if math.Abs(tv2-0.375) > 1e-6 {
		t.Errorf("tvan2 = %v, want 0.375", tv2)
	}
}

func TestSideTvanBoundsSingletonSide(t *testing.T) {
	_, p := dumbbell(t, 1, 5, 1)
	tv1, _, err := SideTvanBounds(p, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tv1 != 0 {
		t.Errorf("singleton side tvan = %v, want 0", tv1)
	}
}

func TestEpochFormulaMatchesPaper(t *testing.T) {
	g, p := dumbbell(t, 8, 8, 1)
	const c = 2.5
	a, err := New(g, gossip.CutIndicator(p), WithPartition(p), WithEpochConstant(c))
	if err != nil {
		t.Fatal(err)
	}
	tv1, tv2, err := SideTvanBounds(p, spectral.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(math.Ceil(c * (tv1 + tv2) * math.Log(16)))
	if want < 1 {
		want = 1
	}
	if a.EpochTicks() != want {
		t.Errorf("K = %d, want %d", a.EpochTicks(), want)
	}
}

// The fused kernel path must produce bit-identical value trajectories to
// the per-event reference loop over HandleTick, including across
// non-convex swaps, and the swap listeners must report identical indices
// and variances.
func TestAlgorithmAKernelBitIdenticalToHandleTick(t *testing.T) {
	g, part, err := graph.Dumbbell(16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	type swapRec struct {
		index     int64
		varBefore float64
		varAfter  float64
	}
	build := func(rec *[]swapRec) *SparseCutAveraging {
		a, err := New(g, x0, WithPartition(part), WithEpochTicks(3),
			WithSwapListener(func(ev SwapEvent) {
				*rec = append(*rec, swapRec{index: ev.Index, varBefore: ev.VarBefore, varAfter: ev.VarAfter})
			}))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	var swapsL, swapsF []swapRec
	legacy := build(&swapsL)
	fused := build(&swapsF)
	ref := newRefClock(g, 13)
	engF, err := sim.NewEngine(g, fused, sim.WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	horizon := 30000 / float64(g.NumEdges()) // about 30,000 events
	ref.runUntil(legacy, horizon)
	tF, evF := engF.RunUntil(horizon)
	if ref.now != tF || ref.events != evF {
		t.Fatalf("(t, events) = (%v, %d) reference vs (%v, %d) fused", ref.now, ref.events, tF, evF)
	}
	if legacy.Swaps() == 0 {
		t.Fatal("no swaps fired; test covers nothing")
	}
	if legacy.Swaps() != fused.Swaps() {
		t.Fatalf("%d swaps legacy vs %d fused", legacy.Swaps(), fused.Swaps())
	}
	if len(swapsL) != len(swapsF) {
		t.Fatalf("%d listener events legacy vs %d fused", len(swapsL), len(swapsF))
	}
	for i := range swapsL {
		if swapsL[i] != swapsF[i] {
			t.Fatalf("swap %d: %+v legacy vs %+v fused", i, swapsL[i], swapsF[i])
		}
	}
	vL, vF := legacy.Values(), fused.Values()
	for i := range vL {
		if math.Float64bits(vL[i]) != math.Float64bits(vF[i]) {
			t.Fatalf("value %d = %v legacy vs %v fused (not bit-identical)", i, vL[i], vF[i])
		}
	}
}

// Same check in all-cut-edges mode (ec = -1), where every cut edge drives
// the shared epoch counter.
func TestAlgorithmAKernelBitIdenticalAllCutEdges(t *testing.T) {
	g, part, err := graph.Dumbbell(12, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.CutIndicator(part)
	build := func() *SparseCutAveraging {
		a, err := New(g, x0, WithPartition(part), WithEpochTicks(5), WithAllCutEdges())
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	legacy, fused := build(), build()
	engF, err := sim.NewEngine(g, fused, sim.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	horizon := 20000 / float64(g.NumEdges()) // about 20,000 events
	newRefClock(g, 31).runUntil(legacy, horizon)
	engF.RunUntil(horizon)
	if legacy.Swaps() == 0 || legacy.Swaps() != fused.Swaps() {
		t.Fatalf("swaps: %d legacy vs %d fused", legacy.Swaps(), fused.Swaps())
	}
	vL, vF := legacy.Values(), fused.Values()
	for i := range vL {
		if math.Float64bits(vL[i]) != math.Float64bits(vF[i]) {
			t.Fatalf("value %d = %v legacy vs %v fused", i, vL[i], vF[i])
		}
	}
}

// The tracked chunk must be the per-event Get/Set reference bit for bit:
// the same values, swaps and chunk-end variance, and as lastIdx the last
// event after which the reference's Variance exceeded the level. Chunks are
// ragged, and a coin ends a chunk at a swap, so swaps land both mid-chunk
// and as a chunk's last event. The dumbbell has three cut edges, so ticks
// of cut edges other than ec occur; the all-cut-edges mode is covered too.
// The level is moved just below the variance at one event of the chunk: an
// idle cut tick (one that changes nothing) on even chunks, a random event
// on odd ones, so the last exceedance falls on idle cut ticks and inside
// runs of internal edges that follow a cut tick. A swap weight of 2, half
// of w*, keeps the variance far above the float floor for thousands of
// events. The 20,000 events stay below the 2^16-update resync, which the
// reference makes mid-chunk and the tracked chunk at its end.
func TestTickChunkTrackedBitIdenticalToReference(t *testing.T) {
	g, part := dumbbell(t, 8, 8, 3)
	x0 := gossip.CutIndicator(part)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"designated edge", []Option{WithPartition(part), WithWeight(2), WithEpochTicks(3)}},
		{"all cut edges", []Option{WithPartition(part), WithWeight(2), WithEpochTicks(5), WithAllCutEdges()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oracle, chunked := mustNew(t, g, x0, tc.opts...), mustNew(t, g, x0, tc.opts...)
			r := rng.New(41)
			floor := 1e-10 * oracle.Variance()
			var swapMid, swapLast, otherCut, idleLast, segmentLast, exceeded, quiet bool
			for chunk, lo := 0, 0; lo < 20000; chunk++ {
				target := 1 + r.Intn(300)
				var picks []graph.EdgeID
				var vars []float64
				firstCut, idle := -1, -1
				for len(picks) < target {
					e := graph.EdgeID(r.Intn(g.NumEdges()))
					otherCut = otherCut || (oracle.isCut[e] && oracle.ec >= 0 && e != oracle.ec)
					swaps := oracle.Swaps()
					picks = append(picks, e)
					oracle.HandleTick(e)
					vars = append(vars, oracle.Variance())
					k := len(picks) - 1
					if oracle.isCut[e] && firstCut < 0 {
						firstCut = k
					}
					if oracle.Swaps() > swaps {
						if r.Intn(2) == 0 {
							swapLast = true
							break
						}
						swapMid = swapMid || len(picks) < target
					} else if oracle.isCut[e] {
						idle = k
					}
				}
				j := r.Intn(len(vars))
				if chunk%2 == 0 && idle >= 0 {
					j = idle
				}
				level := math.Exp(-2) * oracle.Variance()
				if vars[j] > floor {
					level = vars[j] * (1 - 1e-9)
				}
				wantIdx := -1
				for k, v := range vars {
					if v > level {
						wantIdx = k
					}
				}
				gotIdx, endVar := chunked.TickChunkTracked(picks, level)
				hi := lo + len(picks)
				if gotIdx != wantIdx {
					t.Fatalf("chunk [%d, %d): lastIdx %d, want %d", lo, hi, gotIdx, wantIdx)
				}
				if math.Float64bits(endVar) != math.Float64bits(oracle.Variance()) {
					t.Fatalf("chunk [%d, %d): end variance %v, want %v", lo, hi, endVar, oracle.Variance())
				}
				idleLast = idleLast || (wantIdx >= 0 && wantIdx == idle)
				segmentLast = segmentLast || (firstCut >= 0 && wantIdx > firstCut && !oracle.isCut[picks[wantIdx]])
				exceeded = exceeded || gotIdx >= 0
				quiet = quiet || gotIdx < 0
				lo = hi
			}
			if oracle.Swaps() != chunked.Swaps() {
				t.Fatalf("%d swaps per event vs %d chunked", oracle.Swaps(), chunked.Swaps())
			}
			vO, vC := oracle.Values(), chunked.Values()
			for i := range vO {
				if math.Float64bits(vO[i]) != math.Float64bits(vC[i]) {
					t.Fatalf("value %d = %v per event vs %v chunked", i, vO[i], vC[i])
				}
			}
			if !swapMid || !swapLast || !idleLast || !segmentLast || !exceeded || !quiet {
				t.Errorf("coverage: swap mid-chunk %v, swap last %v, last exceedance on an idle cut tick %v, after a cut tick %v, exceeded %v, quiet %v; want all",
					swapMid, swapLast, idleLast, segmentLast, exceeded, quiet)
			}
			if oracle.ec >= 0 && !otherCut {
				t.Error("no tick of a cut edge other than ec")
			}
		})
	}
}

func mustNew(t *testing.T, g *graph.Graph, x0 []float64, opts ...Option) *SparseCutAveraging {
	t.Helper()
	a, err := New(g, x0, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
