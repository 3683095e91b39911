package sim

import (
	"math"
	"sort"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

type countingHandler struct {
	perEdge []int64
	times   []float64
}

func (h *countingHandler) HandleTick(e graph.EdgeID, t float64) {
	h.perEdge[e]++
	h.times = append(h.times, t)
}

func newCounter(g *graph.Graph) *countingHandler {
	return &countingHandler{perEdge: make([]int64, g.NumEdges())}
}

func TestNewEngineValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewEngine(g, nil); err == nil {
		t.Error("nil handler not rejected")
	}
	edgeless := graph.NewBuilder(2).MustBuild()
	if _, err := NewEngine(edgeless, HandlerFunc(func(graph.EdgeID, float64) {})); err == nil {
		t.Error("edgeless graph not rejected")
	}
	if _, err := NewEngine(g, newCounter(g), WithRates([]float64{1})); err == nil {
		t.Error("rate length mismatch not rejected")
	}
	if _, err := NewEngine(g, newCounter(g), WithRates([]float64{1, -1})); err == nil {
		t.Error("negative rate not rejected")
	}
}

func TestRunStopsAtMaxEvents(t *testing.T) {
	g := graph.Complete(4)
	h := newCounter(g)
	eng, err := NewEngine(g, h)
	if err != nil {
		t.Fatal(err)
	}
	_, events := eng.Run(MaxEvents(100))
	if events != 100 {
		t.Errorf("events = %d, want 100", events)
	}
	total := int64(0)
	for _, c := range h.perEdge {
		total += c
	}
	if total != 100 {
		t.Errorf("handler saw %d ticks", total)
	}
}

func TestRunStopsAtTime(t *testing.T) {
	g := graph.Complete(4)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	tEnd, _ := eng.Run(Until(5))
	if tEnd < 5 {
		t.Errorf("stopped at t=%v, want >= 5", tEnd)
	}
	if tEnd > 10 {
		t.Errorf("overshot wildly: t=%v", tEnd)
	}
}

func TestRunResumes(t *testing.T) {
	g := graph.Complete(4)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(MaxEvents(10))
	t1 := eng.Now()
	eng.Run(MaxEvents(20))
	if eng.Events() != 20 {
		t.Errorf("cumulative events = %d, want 20", eng.Events())
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
	run  func(t *testing.T, g *graph.Graph, rates []float64, seed uint64, h Handler, stop StopCondition)
}{
	{"global-clock", runEngine},
	{"per-edge-heap", runHeap},
}

func runEngine(t *testing.T, g *graph.Graph, rates []float64, seed uint64, h Handler, stop StopCondition) {
	t.Helper()
	opts := []Option{WithSeed(seed)}
	if rates != nil {
		opts = append(opts, WithRates(rates))
	}
	eng, err := NewEngine(g, h, opts...)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(stop)
}

// runHeap is Engine.Run's loop over the per-edge heap: test the stop
// condition, then deliver the next tick.
func runHeap(_ *testing.T, g *graph.Graph, rates []float64, seed uint64, h Handler, stop StopCondition) {
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
		c.run(t, g, nil, 1, h, MaxEvents(5000))
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
			c.run(t, g, nil, 77, h, MaxEvents(1000))
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
		c.run(t, g, nil, 5, h, Until(horizon))
		for e, n := range h.perEdge {
			// Poisson(2000): sd ~ 44.7; allow 5 sigma.
			if math.Abs(float64(n)-horizon) > 5*math.Sqrt(horizon) {
				t.Errorf("%s: edge %d ticked %d times, want ~%v", c.name, e, n, horizon)
			}
		}
	}
}

// Inter-event gaps of the superposed process must be Exp(|E|).
func TestGlobalGapDistribution(t *testing.T) {
	g := graph.Complete(4) // 6 edges
	h := newCounter(g)
	eng, err := NewEngine(g, h, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(MaxEvents(200000))
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
		c.run(t, g, []float64{1, 4}, 9, h, MaxEvents(100000))
		ratio := float64(h.perEdge[1]) / float64(h.perEdge[0])
		if math.Abs(ratio-4) > 0.2 {
			t.Errorf("%s: rate ratio %v, want ~4", c.name, ratio)
		}
	}
}

func TestObserverInvoked(t *testing.T) {
	g := graph.Complete(3)
	calls := int64(0)
	var lastT float64
	eng, err := NewEngine(g, newCounter(g), WithObserver(func(tm float64, ev int64) {
		calls++
		lastT = tm
		if ev != calls {
			t.Fatalf("observer event count %d, want %d", ev, calls)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(MaxEvents(50))
	if calls != 50 {
		t.Errorf("observer called %d times", calls)
	}
	if lastT != eng.Now() {
		t.Error("observer saw stale time")
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
	eng1.Run(MaxEvents(100))
	eng2.Run(MaxEvents(100))
	if eng1.Now() == eng2.Now() {
		t.Error("split streams produced identical trajectories")
	}
}

func TestAnyOf(t *testing.T) {
	cond := AnyOf(Until(10), MaxEvents(5))
	if !cond(11, 0) || !cond(0, 5) {
		t.Error("AnyOf missed a satisfied condition")
	}
	if cond(5, 3) {
		t.Error("AnyOf fired early")
	}
}

func TestRunPanicsWithoutStop(t *testing.T) {
	g := graph.Complete(3)
	eng, err := NewEngine(g, newCounter(g))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Run(nil) did not panic")
		}
	}()
	eng.Run(nil)
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
		c.run(t, g, rates, 21, h, Until(horizon))
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

// recordingKernel implements both Handler and TickKernel, recording every
// (edge, time) it sees, so the fused loops can be compared bit-for-bit
// against the generic Run loop.
type recordingKernel struct {
	edges []graph.EdgeID
	times []float64
}

func (k *recordingKernel) HandleTick(e graph.EdgeID, t float64) {
	k.edges = append(k.edges, e)
	k.times = append(k.times, t)
}

func (k *recordingKernel) TickEdges(edges []graph.EdgeID, times []float64) {
	k.edges = append(k.edges, edges...)
	k.times = append(k.times, times...)
}

func (k *recordingKernel) TickEdgeVar(e graph.EdgeID, t float64) float64 {
	k.HandleTick(e, t)
	return 0
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
	engL, err = NewEngine(g, HandlerFunc(legacy.HandleTick), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	engF, err = NewEngine(g, fused, WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return legacy, fused, engL, engF
}

// The fused RunEvents must produce the identical event sequence (edges and
// times, bit for bit) as the generic Run loop.
func TestRunEventsBitIdenticalToRun(t *testing.T) {
	legacy, fused, engL, engF := runPair(t, 99)
	const n = 5000
	tL, evL := engL.Run(MaxEvents(n))
	tF, evF := engF.RunEvents(n)
	if tL != tF || evL != evF {
		t.Fatalf("(t, events) = (%v, %d) generic vs (%v, %d) fused", tL, evL, tF, evF)
	}
	compareRecordings(t, "RunEvents", legacy, fused)
}

// Same for RunUntil vs Run(Until(maxT)).
func TestRunUntilBitIdenticalToRun(t *testing.T) {
	legacy, fused, engL, engF := runPair(t, 7)
	const horizon = 3.5
	tL, evL := engL.Run(Until(horizon))
	tF, evF := engF.RunUntil(horizon)
	if tL != tF || evL != evF {
		t.Fatalf("(t, events) = (%v, %d) generic vs (%v, %d) fused", tL, evL, tF, evF)
	}
	compareRecordings(t, "RunUntil", legacy, fused)
}

func compareRecordings(t *testing.T, label string, a, b *recordingKernel) {
	t.Helper()
	if len(a.edges) != len(b.edges) {
		t.Fatalf("%s: %d events generic vs %d fused", label, len(a.edges), len(b.edges))
	}
	for i := range a.edges {
		if a.edges[i] != b.edges[i] || a.times[i] != b.times[i] {
			t.Fatalf("%s: event %d diverged: (%d, %v) vs (%d, %v)",
				label, i, a.edges[i], a.times[i], b.edges[i], b.times[i])
		}
	}
}

// An engine with observers must not take the kernel fast path (observers
// would be skipped); RunEvents falls back to the generic loop.
func TestRunEventsRespectsObservers(t *testing.T) {
	g := graph.Complete(4)
	k := &recordingKernel{}
	calls := 0
	eng, err := NewEngine(g, k, WithObserver(func(float64, int64) { calls++ }))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunEvents(50)
	if calls != 50 {
		t.Errorf("observer called %d times, want 50", calls)
	}
	// RunTracked has no generic fallback: with observers present it must
	// refuse rather than silently skip them.
	if _, ok := eng.RunTracked(Tracked{StopLevel: -1, MaxTime: 1}); ok {
		t.Error("RunTracked took the fast path despite observers")
	}
}

// RunTracked must replicate the estimator's stop rule: it stops once the
// variance is below StopLevel and the quiet period has passed, and censors
// at MaxTime.
func TestRunTrackedStops(t *testing.T) {
	g := graph.Complete(4)
	k := &recordingKernel{} // variance constant 0: below any positive stop level
	eng, err := NewEngine(g, k)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := eng.RunTracked(Tracked{ExceedLevel: 1, StopLevel: 0.5, Quiet: 2, MaxTime: 1e6})
	if !ok {
		t.Fatal("kernel handler rejected by RunTracked")
	}
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
	res2, ok := eng2.RunTracked(Tracked{ExceedLevel: -1, StopLevel: -1, Quiet: 0, MaxTime: 0.5})
	if !ok {
		t.Fatal("kernel handler rejected by RunTracked")
	}
	if !res2.Censored {
		t.Error("not censored at MaxTime with unreachable stop level")
	}
	if res2.LastExceed <= 0 {
		t.Error("exceedances (variance 0 > level -1) not recorded")
	}
}
