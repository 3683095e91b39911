package scenario

import (
	"math"
	"sort"
	"testing"

	"sparsecut/internal/core"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

// Algorithm A's cells run on the replica-batched engine; they must sample
// the last-exceedance distribution of the per-event oracle (perEventTav
// over NewAlgorithm) on the dumbbell, the planted family, node-clock rates
// and the all-cut-edges mode: a two-sample KS test at alpha = 0.001, as
// internal/avgtime's TestBatchedVsLegacyTavKS for vanilla.
func TestBatchedAlgorithmAVsPerEventKS(t *testing.T) {
	const trials = 120
	crit := 1.949 * math.Sqrt(2.0/trials) // two-sample KS, alpha = 0.001, n = m = trials
	cases := []struct {
		name string
		spec Spec
	}{
		{"dumbbell", Spec{Graph: GraphSpec{Family: "dumbbell", N: 32, Cut: 1}}},
		{"planted", Spec{Graph: GraphSpec{Family: "planted", N: 40}}},
		{"nodeclock", Spec{Graph: GraphSpec{Family: "dumbbell", N: 32, Cut: 1}, Rates: "nodeclock"}},
		{"allcut", Spec{Graph: GraphSpec{Family: "dumbbell", N: 32, Cut: 4}, Algo: AlgoSpec{AllCutEdges: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Algo.Name = "A"
			tc.spec.Stop.Trials = trials
			tc.spec.Seed = 7
			r, err := tc.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			batched, err := r.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			perEvent, perEventCensored, err := perEventTav(r)
			if err != nil {
				t.Fatal(err)
			}
			if perEventCensored != 0 || batched.Censored != 0 {
				t.Fatalf("unexpected censoring: per-event %d, batched %d", perEventCensored, batched.Censored)
			}
			if d := stats.KSDistance(perEvent, batched.PerTrial); d > crit {
				t.Errorf("KS distance %.4f between per-event and batched Tav samples exceeds %.4f (batched Tav=%.4g)",
					d, crit, batched.Tav)
			}
		})
	}
}

// perEventTav is the per-event oracle of internal/avgtime's KS tests
// (perEventEstimate there) for a resolved A spec: each trial ticks one
// NewAlgorithm run event by event, reading the variance after every tick (a
// one-edge tracked chunk), on a clock that shares no code with the engines
// — Exp(1) gaps scaled by the inverse total rate, then an edge picked
// proportionally to its rate by binary search over the cumulative rates.
// The trial streams and the stop rule (levels e⁻²·varX(0) and
// e⁻²·1e−8·varX(0), a quiet period of two epochs) are
// avgtime.EstimateBatched's. It returns the per-trial last exceedance times
// and the number of censored trials.
func perEventTav(r *Resolved) (lastExceed []float64, censored int, err error) {
	cfg := r.AvgtimeConfig()
	cum := make([]float64, r.Graph.NumEdges())
	total := 0.0
	for i := range cum {
		if r.Rates == nil {
			total++
		} else {
			total += r.Rates[i]
		}
		cum[i] = total
	}
	root := rng.New(cfg.Seed)
	tick := make([]graph.EdgeID, 1)
	for range cfg.Trials {
		algRNG, clock := root.Split(), root.Split()
		alg, err := r.NewAlgorithm(algRNG)
		if err != nil {
			return nil, 0, err
		}
		a := alg.(*core.SparseCutAveraging)
		var0 := a.Variance()
		exceed, stop, quiet := math.Exp(-2)*var0, math.Exp(-2)*1e-8*var0, 2*a.EpochDuration()
		now, last, v := 0.0, 0.0, var0
		for now < cfg.MaxTime && (v >= stop || now < last+quiet) {
			now += clock.ExpUnit() / total
			u := clock.Float64() * total
			tick[0] = graph.EdgeID(sort.Search(len(cum)-1, func(i int) bool { return cum[i] > u }))
			_, v = a.TickChunkTracked(tick, math.Inf(1))
			if v > exceed {
				last = now
			}
		}
		if now >= cfg.MaxTime && v >= stop {
			censored++
		}
		lastExceed = append(lastExceed, last)
	}
	return lastExceed, censored, nil
}
