package sim

import (
	"math"
	"sort"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

// handler is the per-event contract of the reference loop below: one call
// per edge tick.
type handler interface {
	HandleTick(e graph.EdgeID, t float64)
}

// stopCondition is tested before each event of the reference loop, which
// stops once it returns true.
type stopCondition func(t float64, events int64) bool

func until(maxT float64) stopCondition {
	return func(t float64, _ int64) bool { return t >= maxT }
}

func maxEvents(n int64) stopCondition {
	return func(_ float64, events int64) bool { return events >= n }
}

// runRef is the per-event reference loop over the engine's clock: test the
// stop condition, draw the next tick from the scheduler, deliver it to h.
// The fused loops are pinned to it bit for bit.
func runRef(e *Engine, h handler, stop stopCondition) (float64, int64) {
	for !stop(e.now, e.events) {
		edge, at := e.sched.next()
		e.now = at
		h.HandleTick(edge, at)
		e.events++
	}
	return e.now, e.events
}

// countingHandler counts ticks per edge on any loop, and records their
// times on the reference loops, which deliver them.
type countingHandler struct {
	perEdge []int64
	times   []float64
}

func (h *countingHandler) HandleTick(e graph.EdgeID, t float64) {
	h.perEdge[e]++
	h.times = append(h.times, t)
}

func (h *countingHandler) TickEdges(edges []graph.EdgeID) {
	for _, e := range edges {
		h.perEdge[e]++
	}
}

func newCounter(g *graph.Graph) *countingHandler {
	return &countingHandler{perEdge: make([]int64, g.NumEdges())}
}

func TestNewEngineValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewEngine(g, nil); err == nil {
		t.Error("nil kernel not rejected")
	}
	edgeless := graph.NewBuilder(2).MustBuild()
	if _, err := NewEngine(edgeless, newCounter(edgeless)); err == nil {
		t.Error("edgeless graph not rejected")
	}
	if _, err := NewEngine(g, newCounter(g), WithRates([]float64{1})); err == nil {
		t.Error("rate length mismatch not rejected")
	}
	if _, err := NewEngine(g, newCounter(g), WithRates([]float64{1, -1})); err == nil {
		t.Error("negative rate not rejected")
	}
}

func TestRunStopsAtTime(t *testing.T) {
	g := graph.Complete(4)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	tEnd, _ := eng.RunUntil(5)
	if tEnd < 5 {
		t.Errorf("stopped at t=%v, want >= 5", tEnd)
	}
	if tEnd > 10 {
		t.Errorf("overshot wildly: t=%v", tEnd)
	}
}

// The kernel sees every event RunUntil counts.
func TestRunUntilKernelSeesEveryEvent(t *testing.T) {
	g := graph.Complete(4)
	h := newCounter(g)
	eng, err := NewEngine(g, h)
	if err != nil {
		t.Fatal(err)
	}
	_, events := eng.RunUntil(5)
	total := int64(0)
	for _, c := range h.perEdge {
		total += c
	}
	if total != events || events != eng.Events() {
		t.Errorf("handler saw %d ticks, RunUntil returned %d, Events() %d", total, events, eng.Events())
	}
}

func TestRunResumes(t *testing.T) {
	g := graph.Complete(4)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	_, e1 := eng.RunUntil(1)
	t1 := eng.Now()
	_, e2 := eng.RunUntil(2)
	if e2 <= e1 || eng.Events() != e2 {
		t.Errorf("cumulative events %d after %d, Events() %d", e2, e1, eng.Events())
	}
	if eng.Now() <= t1 {
		t.Error("time did not advance on resume")
	}
}

// clocks are the two constructions of the paper's timing model: the
// engine's superposed global clock, and the per-edge heap reference. Each
// drives h on g from seed until stop; nil rates mean rate 1 per edge.
var clocks = []struct {
	name string
	run  func(t *testing.T, g *graph.Graph, rates []float64, seed uint64, h *countingHandler, stop stopCondition)
}{
	{"global-clock", runEngine},
	{"per-edge-heap", runHeap},
}

func runEngine(t *testing.T, g *graph.Graph, rates []float64, seed uint64, h *countingHandler, stop stopCondition) {
	t.Helper()
	opts := []Option{WithSeed(seed)}
	if rates != nil {
		opts = append(opts, WithRates(rates))
	}
	eng, err := NewEngine(g, h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	runRef(eng, h, stop)
}

// runHeap is runRef's loop over the per-edge heap: test the stop
// condition, then deliver the next tick.
func runHeap(_ *testing.T, g *graph.Graph, rates []float64, seed uint64, h *countingHandler, stop stopCondition) {
	if rates == nil {
		rates = make([]float64, g.NumEdges())
		for i := range rates {
			rates[i] = 1
		}
	}
	s := newHeapScheduler(rates, rng.New(seed))
	now, events := 0.0, int64(0)
	for !stop(now, events) {
		e, at := s.next()
		now = at
		h.HandleTick(e, at)
		events++
	}
}

func TestTimesAreIncreasing(t *testing.T) {
	for _, c := range clocks {
		g := graph.Complete(5)
		h := newCounter(g)
		c.run(t, g, nil, 1, h, maxEvents(5000))
		if !sort.Float64sAreSorted(h.times) {
			t.Errorf("%s: tick times not sorted", c.name)
		}
		for _, tm := range h.times {
			if tm <= 0 {
				t.Fatalf("%s: non-positive tick time %v", c.name, tm)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, c := range clocks {
		g := graph.Complete(5)
		run := func() []float64 {
			h := newCounter(g)
			c.run(t, g, nil, 77, h, maxEvents(1000))
			return h.times
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: runs diverged at event %d", c.name, i)
			}
		}
	}
}

// Both clocks must realise the same process: per-edge tick counts over a
// fixed horizon are Poisson(rate*T) for each edge.
func TestSchedulerStatisticalEquivalence(t *testing.T) {
	g := graph.Complete(6) // 15 edges
	const horizon = 2000.0
	for _, c := range clocks {
		h := newCounter(g)
		c.run(t, g, nil, 5, h, until(horizon))
		for e, n := range h.perEdge {
			// Poisson(2000): sd ~ 44.7; allow 5 sigma.
			if math.Abs(float64(n)-horizon) > 5*math.Sqrt(horizon) {
				t.Errorf("%s: edge %d ticked %d times, want ~%v", c.name, e, n, horizon)
			}
		}
	}
}

// Inter-event gaps of the superposed process must be Exp(|E|). The gaps
// are read on the reference loop over the engine's clock, to which the
// fused loops are pinned bit for bit.
func TestGlobalGapDistribution(t *testing.T) {
	g := graph.Complete(4) // 6 edges
	h := newCounter(g)
	eng, err := NewEngine(g, h, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	runRef(eng, h, maxEvents(200000))
	gaps := make([]float64, len(h.times)-1)
	prev := 0.0
	for i, tm := range h.times {
		if i > 0 {
			gaps[i-1] = tm - prev
		}
		prev = tm
	}
	mean := stats.Mean(gaps)
	want := 1.0 / 6.0
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("mean gap %v, want ~%v", mean, want)
	}
	// Memorylessness check: variance of Exp is mean^2.
	if v := stats.Variance(gaps); math.Abs(v-want*want)/(want*want) > 0.05 {
		t.Errorf("gap variance %v, want ~%v", v, want*want)
	}
}

func TestWeightedRates(t *testing.T) {
	// A path with two edges: rates 1 and 4 -> tick counts ~1:4.
	g := graph.Path(3)
	for _, c := range clocks {
		h := newCounter(g)
		c.run(t, g, []float64{1, 4}, 9, h, maxEvents(100000))
		ratio := float64(h.perEdge[1]) / float64(h.perEdge[0])
		if math.Abs(ratio-4) > 0.2 {
			t.Errorf("%s: rate ratio %v, want ~4", c.name, ratio)
		}
	}
}

func TestWithRNGSharedStream(t *testing.T) {
	g := graph.Complete(3)
	r := rng.New(123)
	eng1, err := NewEngine(g, newCounter(g), WithRNG(r.Split()))
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(g, newCounter(g), WithRNG(r.Split()))
	if err != nil {
		t.Fatal(err)
	}
	eng1.RunUntil(30)
	eng2.RunUntil(30)
	if eng1.Now() == eng2.Now() {
		t.Error("split streams produced identical trajectories")
	}
}

func TestGraphAccessor(t *testing.T) {
	g := graph.Complete(3)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Graph() != g {
		t.Error("Graph() returned wrong graph")
	}
}

// --- alias sampler and fused kernel tests ---

// The alias table must encode the input weights exactly: the probability
// implied by the table construction equals rate/total to float precision.
func TestAliasTableImpliedProbabilities(t *testing.T) {
	rates := []float64{0.1, 2, 0.5, 1, 1, 3.7, 0.01, 5}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	tab := newAliasTable(rates)
	for i, r := range rates {
		want := r / total
		got := tab.impliedProb(int32(i))
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("implied P(%d) = %v, want %v", i, got, want)
		}
	}
}

// Seeded statistical cross-check: the alias sampler and the retained
// binary-search cdfSampler must realise the same edge-frequency
// distribution on an identical heterogeneous weight vector.
func TestAliasMatchesCDFSampler(t *testing.T) {
	rates := []float64{1, 4, 0.25, 2, 2, 8, 0.5, 1, 1, 3}
	total := 0.0
	for _, r := range rates {
		total += r
	}
	const n = 400000
	tab := newAliasTable(rates)
	cdf := newCDFSampler(rates)
	countA := make([]float64, len(rates))
	countC := make([]float64, len(rates))
	ra, rc := rng.New(11), rng.New(12)
	for i := 0; i < n; i++ {
		countA[tab.pick(ra)]++
		countC[cdf.pick(rc)]++
	}
	for i, rate := range rates {
		p := rate / total
		sigma := math.Sqrt(float64(n) * p * (1 - p))
		if d := math.Abs(countA[i] - float64(n)*p); d > 5*sigma {
			t.Errorf("alias: edge %d count %v off expectation %v by %.1f sigma", i, countA[i], float64(n)*p, d/sigma)
		}
		if d := math.Abs(countC[i] - float64(n)*p); d > 5*sigma {
			t.Errorf("cdf: edge %d count %v off expectation %v by %.1f sigma", i, countC[i], float64(n)*p, d/sigma)
		}
		// Alias vs cdf directly (independent streams: combined variance).
		if d := math.Abs(countA[i] - countC[i]); d > 5*math.Sqrt2*sigma {
			t.Errorf("alias vs cdf: edge %d counts %v vs %v differ by %.1f sigma", i, countA[i], countC[i], d/(math.Sqrt2*sigma))
		}
	}
}

// The global clock (alias path), the per-edge heap and the analytic
// expectation must agree on mean per-edge tick counts under heterogeneous
// rates.
func TestSchedulerTickCountAgreement(t *testing.T) {
	g := graph.Complete(5) // 10 edges
	rates := make([]float64, g.NumEdges())
	for i := range rates {
		rates[i] = 0.5 + 0.4*float64(i) // heterogeneous: forces the alias path
	}
	const horizon = 3000.0
	counts := map[string][]int64{}
	for _, c := range clocks {
		h := newCounter(g)
		c.run(t, g, rates, 21, h, until(horizon))
		counts[c.name] = h.perEdge
	}
	for e, rate := range rates {
		want := rate * horizon
		sigma := math.Sqrt(want)
		for name, c := range counts {
			if d := math.Abs(float64(c[e]) - want); d > 5*sigma {
				t.Errorf("%s: edge %d ticked %d times, want ~%v (%.1f sigma)", name, e, c[e], want, d/sigma)
			}
		}
	}
}

// recordingKernel implements the reference handler, TickKernel and
// eagerKernel, recording every edge it sees, so the fused loop and the
// eager loop can be compared bit-for-bit against the reference loop: the
// same edges, and the same clock and event count where each loop stops.
type recordingKernel struct {
	edges []graph.EdgeID
}

func (k *recordingKernel) HandleTick(e graph.EdgeID, _ float64) {
	k.edges = append(k.edges, e)
}

func (k *recordingKernel) TickEdges(edges []graph.EdgeID) {
	k.edges = append(k.edges, edges...)
}

func (k *recordingKernel) TickChunkTracked(edges []graph.EdgeID, _ float64) (int, float64) {
	k.edges = append(k.edges, edges...)
	return -1, 0
}

func (k *recordingKernel) Variance() float64 { return 0 }

func runPair(t *testing.T, seed uint64) (legacy, fused *recordingKernel, engL, engF *Engine) {
	t.Helper()
	g, _, err2 := graph.Dumbbell(12, 12, 2)
	if err2 != nil {
		t.Fatal(err2)
	}
	legacy, fused = &recordingKernel{}, &recordingKernel{}
	var err error
	engL, err = NewEngine(g, legacy, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	engF, err = NewEngine(g, fused, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return legacy, fused, engL, engF
}

// The fused RunUntil must produce the identical event sequence as the
// reference loop, and so must the eager RunTracked with only MaxTime set,
// against the reference loop to the same horizons.
func TestRunUntilBitIdenticalToRun(t *testing.T) {
	legacy, fused, engL, engF := runPair(t, 7)
	const horizon = 3.5
	tL, evL := runRef(engL, legacy, until(horizon))
	tF, evF := engF.RunUntil(horizon)
	if tL != tF || evL != evF {
		t.Fatalf("(t, events) = (%v, %d) reference vs (%v, %d) fused", tL, evL, tF, evF)
	}
	compareRecordings(t, "RunUntil", legacy, fused)

	legacy, tracked, engL, engT := runPair(t, 7)
	for _, maxT := range []float64{0.25, 1, 1, horizon} {
		tL, evL := runRef(engL, legacy, until(maxT))
		engT.RunTracked(Tracked{MaxTime: maxT})
		if tL != engT.Now() || evL != engT.Events() {
			t.Fatalf("at %v: (t, events) = (%v, %d) reference vs (%v, %d) tracked", maxT, tL, evL, engT.Now(), engT.Events())
		}
	}
	compareRecordings(t, "RunTracked", legacy, tracked)
}

// Chained RunUntil steps, a repeated horizon among them, must produce the
// identical event sequence as the reference loop run to the same horizons.
func TestChainedRunUntilBitIdenticalToRun(t *testing.T) {
	legacy, fused, engL, engF := runPair(t, 99)
	for _, maxT := range []float64{0.25, 1, 1, 2.5, 9} {
		tL, evL := runRef(engL, legacy, until(maxT))
		tF, evF := engF.RunUntil(maxT)
		if tL != tF || evL != evF {
			t.Fatalf("at %v: (t, events) = (%v, %d) reference vs (%v, %d) chained", maxT, tL, evL, tF, evF)
		}
	}
	compareRecordings(t, "chained RunUntil", legacy, fused)
}

func compareRecordings(t *testing.T, label string, a, b *recordingKernel) {
	t.Helper()
	if len(a.edges) != len(b.edges) {
		t.Fatalf("%s: %d events generic vs %d fused", label, len(a.edges), len(b.edges))
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] {
			t.Fatalf("%s: event %d diverged: edge %d vs %d", label, i, a.edges[i], b.edges[i])
		}
	}
}

// The eager RunTracked must replicate the estimator's stop rule: it stops
// once the variance is below StopLevel and the quiet period has passed,
// and censors at MaxTime.
func TestRunTrackedStops(t *testing.T) {
	g := graph.Complete(4)
	k := &recordingKernel{} // variance constant 0: below any positive stop level
	eng, err := NewEngine(g, k)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunTracked(Tracked{ExceedLevel: 1, StopLevel: 0.5, Quiet: 2, MaxTime: 1e6})
	if res.Censored {
		t.Error("censored despite variance below stop level")
	}
	if res.LastExceed != 0 {
		t.Errorf("last exceedance %v, want 0", res.LastExceed)
	}
	if eng.Now() < 2 {
		t.Errorf("stopped at t=%v before the quiet period", eng.Now())
	}
	// Censoring: unreachable stop level, tiny horizon.
	eng2, err := NewEngine(g, k, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res2 := eng2.RunTracked(Tracked{ExceedLevel: -1, StopLevel: -1, Quiet: 0, MaxTime: 0.5})
	if !res2.Censored {
		t.Error("not censored at MaxTime with unreachable stop level")
	}
	if res2.LastExceed <= 0 {
		t.Error("exceedances (variance 0 > level -1) not recorded")
	}
}
