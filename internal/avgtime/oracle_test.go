package avgtime

import (
	"math"
	"sort"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// perEventEstimate is the KS tests' oracle: Definition 1 estimated one
// event at a time, with a variance read after every tick (a one-edge
// tracked chunk). Its clock shares no code with the engines: each event
// draws an Exp(1) gap scaled by the inverse total rate, then picks an edge
// with probability proportional to its rate by binary search over the
// cumulative rates (nil rates mean rate 1 everywhere). A bias in the
// engines' shared samplers — the alias table, the Lemire pick, the Gamma
// bridge — therefore shows up as a KS failure. The trial streams and the
// stop rule are EstimateBatched's: streams split from cfg.Seed in trial
// order, and cfg.tracked's levels and quiet period.
func perEventEstimate(g *graph.Graph, rates []float64, newAlg func(r *rng.RNG) (gossip.Algorithm, error), cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	cum := make([]float64, g.NumEdges())
	total := 0.0
	for i := range cum {
		if rates == nil {
			total++
		} else {
			total += rates[i]
		}
		cum[i] = total
	}
	root := rng.New(cfg.Seed)
	res := Result{PerTrial: make([]float64, 0, cfg.Trials)}
	tick := make([]graph.EdgeID, 1)
	for range cfg.Trials {
		algRNG, r := root.Split(), root.Split()
		alg, err := newAlg(algRNG)
		if err != nil {
			return Result{}, err
		}
		var0 := alg.Variance()
		if var0 == 0 {
			res.PerTrial = append(res.PerTrial, 0)
			continue
		}
		tr := cfg.tracked(var0, alg)
		now, last, v := 0.0, 0.0, var0
		for now < tr.MaxTime && (v >= tr.StopLevel || now < last+tr.Quiet) {
			now += r.ExpUnit() / total
			u := r.Float64() * total
			tick[0] = graph.EdgeID(sort.Search(len(cum)-1, func(i int) bool { return cum[i] > u }))
			_, v = alg.TickChunkTracked(tick, math.Inf(1))
			if v > tr.ExceedLevel {
				last = now
			}
			res.Events++
		}
		if now >= tr.MaxTime && v >= tr.StopLevel {
			res.Censored++
		}
		res.PerTrial = append(res.PerTrial, last)
	}
	return res, res.summarise()
}

// vanillaPerEvent is perEventEstimate's factory for vanilla gossip from x0.
func vanillaPerEvent(g *graph.Graph, x0 []float64) func(*rng.RNG) (gossip.Algorithm, error) {
	return func(*rng.RNG) (gossip.Algorithm, error) { return gossip.NewVanilla(g, x0) }
}

// The Definition-1 constants are math.Exp(-2) and 1 − math.Exp(-1) to the
// bit, so writing them as literals moved no estimate.
func TestDefinitionConstants(t *testing.T) {
	if threshold != math.Exp(-2) || quantile != 1-math.Exp(-1) {
		t.Errorf("threshold %v, quantile %v; want %v, %v", threshold, quantile, math.Exp(-2), 1-math.Exp(-1))
	}
}

// The oracle's clock must realise the timing model it stands for: per-edge
// tick counts over a horizon are Poisson(rate·T), and events arrive at the
// total rate.
func TestPerEventClockRates(t *testing.T) {
	g := graph.Path(4) // 3 edges
	rates := []float64{0.5, 1, 2.5}
	counts := make([]float64, len(rates))
	k := &countingKernel{counts: counts}
	const horizon = 4000.0
	res, err := perEventEstimate(g, rates, func(*rng.RNG) (gossip.Algorithm, error) { return k, nil },
		Config{Trials: 1, MaxTime: horizon, MarginFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 1 {
		t.Fatalf("censored %d, want 1 (the counting kernel never converges)", res.Censored)
	}
	for e, rate := range rates {
		want := rate * horizon
		if d := math.Abs(counts[e] - want); d > 5*math.Sqrt(want) {
			t.Errorf("edge %d ticked %v times, want ~%v", e, counts[e], want)
		}
	}
}

// countingKernel counts ticks per edge at a constant variance of 1.
type countingKernel struct {
	gossip.Algorithm
	counts []float64
}

func (k *countingKernel) TickChunkTracked(edges []graph.EdgeID, level float64) (int, float64) {
	lastIdx := -1
	for i, e := range edges {
		k.counts[e]++
		if 1 > level {
			lastIdx = i
		}
	}
	return lastIdx, 1
}

func (k *countingKernel) Variance() float64 { return 1 }
