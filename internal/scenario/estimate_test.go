package scenario

import (
	"math"
	"testing"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/gossip"
	"sparsecut/internal/rng"
	"sparsecut/internal/stats"
)

// Algorithm A's cells run on the replica-batched engine; they must sample
// the last-exceedance distribution of the per-event oracle
// (avgtime.EstimateWithRates over NewAlgorithm) on the dumbbell, the
// planted family, node-clock rates and the all-cut-edges mode: a
// two-sample KS test at alpha = 0.001, as TestBatchedVsLegacyTavKS for
// vanilla.
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
			perEvent, err := avgtime.EstimateWithRates(r.Graph, r.Rates, func(_ int, rr *rng.RNG) (gossip.Algorithm, error) {
				return r.NewAlgorithm(rr)
			}, r.AvgtimeConfig())
			if err != nil {
				t.Fatal(err)
			}
			if perEvent.Censored != 0 || batched.Censored != 0 {
				t.Fatalf("unexpected censoring: per-event %d, batched %d", perEvent.Censored, batched.Censored)
			}
			if d := stats.KSDistance(perEvent.PerTrial, batched.PerTrial); d > crit {
				t.Errorf("KS distance %.4f between per-event and batched Tav samples exceeds %.4f (per-event Tav=%.4g, batched Tav=%.4g)",
					d, crit, perEvent.Tav, batched.Tav)
			}
		})
	}
}
