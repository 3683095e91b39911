package report

// The check-shaped experiments: claims that are not Tav-vs-bound tables
// (variance trajectories, the Section 3 dominance machinery, the Theorem 3
// walk tail, the swap-weight algebra, the synchronous diffusion baseline,
// and the distributed exchange rule). Each runs deterministically from
// Params.Seed and reports claim-vs-threshold checks.

import (
	"fmt"
	"math"

	"sparsecut/internal/core"
	"sparsecut/internal/dist"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
	"sparsecut/internal/stats"
	"sparsecut/internal/sweep"
	"sparsecut/internal/syncsim"
	"sparsecut/internal/walk"
)

func init() {
	register(Entry{
		ID:    "E5",
		Title: "variance trajectories varX(t)/varX(0), vanilla vs Algorithm A",
		Claim: "Section 1/3: A's variance decays in a few epochs (with transient non-convex spikes) while vanilla decays at rate ~1/n across the cut",
		Run:   runE5,
	})
	register(Entry{
		ID:    "E6",
		Title: "stochastic dominance of the epoch log-variance process",
		Claim: "Section 3: per-epoch increments of half-log-variance are dominated by the walk with steps +log n (p=1/2) / -(3/2) log n; weak-contraction epochs occur with frequency <= 1/2 and no increment exceeds log n",
		Run:   runE6,
	})
	register(Entry{
		ID:    "E7",
		Title: "Theorem 3: sub-Gaussian tail of the simple random walk",
		Claim: "Theorem 3: P[S_n >= s sqrt(n)] <= c exp(-beta s^2) for absolute constants c, beta",
		Run:   runE7,
	})
	register(Entry{
		ID:    "E8",
		Title: "ablation: swap-weight coefficient (paper n1 vs exact n1*n2/n)",
		Claim: "Section 1.0.1 writes the coefficient as n1; exact algebra gives w* = n1*n2/n. One mixed-state swap contracts the side-mean mass by |1 - w/w*| — the literal n1 on equal sides gives factor 1 (no contraction)",
		Run:   runE8,
	})
	register(Entry{
		ID:    "E11",
		Title: "non-convex baseline: first/second-order diffusion (ref [5]) vs Algorithm A",
		Claim: "Introduction: second-order (non-convex) diffusion beats first-order, but both remain cut-limited on the dumbbell; A's targeted non-convexity does not",
		Run:   runE11,
	})
	register(Entry{
		ID:    "E12",
		Title: "decentralized execution: the message-passing exchange rule",
		Claim: "Section 1: the algorithm is decentralized — a local lock/propose/commit exchange rule over an explicit transport reproduces the simulator's behaviour",
		Run:   runE12,
	})
}

// dumbbellCase builds the symmetric dumbbell workload with its worst-case
// initial vector.
func dumbbellCase(n, cutEdges int) (*graph.Graph, *graph.Partition, []float64, error) {
	g, p, err := graph.SymmetricDumbbell(n, cutEdges)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, p, gossip.CutIndicator(p), nil
}

func runE5(p Params) (Section, error) {
	var sec Section
	n := pick(p, 32, 128)
	horizon := pick(p, 40.0, 120.0)
	g, part, x0, err := dumbbellCase(n, 1)
	if err != nil {
		return sec, err
	}
	root := rng.New(p.Seed)

	onSide1 := make([]bool, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		onSide1[u] = part.SideOf(graph.NodeID(u)) == graph.Side1
	}
	sideGap := func(vals []float64) float64 {
		var s1, s2 float64
		for u, x := range vals {
			if onSide1[u] {
				s1 += x
			} else {
				s2 += x
			}
		}
		return math.Abs(s1/float64(part.Size1()) - s2/float64(part.Size2()))
	}

	const segments = 4
	tbl := Table{
		Name: fmt.Sprintf("variance ratio varX(t)/varX(0) and cross-cut gap |mu1-mu2|, dumbbell n=%d", n),
		Columns: []string{"algorithm",
			fmt.Sprintf("ratio@t=%g", horizon/4), fmt.Sprintf("ratio@t=%g", horizon/2),
			fmt.Sprintf("ratio@t=%g", 3*horizon/4), fmt.Sprintf("ratio@t=%g", horizon),
			"final |mu1-mu2|"},
	}
	finals := map[string]float64{}
	for _, which := range []string{"vanilla", "algorithm-A"} {
		var alg gossip.Algorithm
		if which == "vanilla" {
			alg, err = gossip.NewVanilla(g, x0)
		} else {
			alg, err = core.New(g, x0, core.WithPartition(part))
		}
		if err != nil {
			return sec, err
		}
		var0 := alg.Variance()
		eng, err := sim.NewEngine(g, alg, sim.WithRNG(root.Split()))
		if err != nil {
			return sec, err
		}
		row := []string{which}
		var final float64
		for i := 1; i <= segments; i++ {
			// Not RunUntil: without a swap listener A's fused kernel takes
			// the lazy path, whose exact moment resync changes the ratios
			// reported here at the float noise floor (ratio@t=30 for A
			// reads 1.069e-50 instead of 0).
			eng.Run(sim.Until(horizon * float64(i) / segments))
			final = alg.Variance() / var0
			row = append(row, fmt.Sprintf("%.4g", final))
		}
		row = append(row, fmt.Sprintf("%.4g", sideGap(alg.Values())))
		tbl.Rows = append(tbl.Rows, row)
		finals[which] = final
		sec.addMetric("final-ratio-"+which, final)
	}
	sec.Tables = append(sec.Tables, tbl)
	sec.addCheck("final ratio of A relative to vanilla", finals["algorithm-A"]/finals["vanilla"],
		"< 1: A ends far below vanilla", finals["algorithm-A"] < finals["vanilla"])
	sec.addCheck("final ratio of A", finals["algorithm-A"],
		"< 1e-8: a few epochs fully annihilate the cut imbalance", finals["algorithm-A"] < 1e-8)
	sec.Notes = append(sec.Notes,
		"Full trajectories (400-point downsampled CSV) are available via `go run ./cmd/gossipsim -graph dumbbell -algo A -csv`.")
	return sec, nil
}

func runE6(p Params) (Section, error) {
	var sec Section
	n := pick(p, 32, 48)
	// The mean-increment statistic is censoring-biased (strong epochs fall
	// through the float noise floor and end a run's measurable prefix), so
	// quick mode still needs a few dozen runs for its sign to be stable.
	runs := pick(p, 24, 40)
	// Slow-mixing sides (cycles) keep several epochs above the float noise
	// floor, so the per-epoch contraction is actually measurable; clique
	// sides contract by ~n^-6 per epoch and hit the floor immediately.
	m := n / 2
	g, part, err := graph.Join(graph.Cycle(m), graph.Cycle(m),
		[][2]graph.NodeID{{graph.NodeID(m - 1), 0}})
	if err != nil {
		return sec, err
	}
	root := rng.New(p.Seed)

	// Collect per-epoch half-log-variance ratios at swap boundaries.
	// Epochs that fall through the float noise floor are certainly
	// stronger contractions than -(3/2)log n, so they count as strong and
	// end the measurable prefix of the run.
	const floor = 1e-24
	var allIncrements []float64 // finite, measurable increments
	flooredStrong := 0
	epochsToThreshold := make([]float64, 0, runs)
	for run := 0; run < runs; run++ {
		var ratios []float64
		var var0 float64
		crossedAt := -1
		alg, err := core.New(g, gossip.CutIndicator(part),
			core.WithPartition(part), core.WithEpochConstant(1.2),
			core.WithSwapListener(func(ev core.SwapEvent) {
				if var0 == 0 {
					return
				}
				ratio := ev.VarAfter / var0
				ratios = append(ratios, ratio)
				if crossedAt < 0 && ratio < math.Exp(-2) {
					crossedAt = int(ev.Index)
				}
			}))
		if err != nil {
			return sec, err
		}
		var0 = alg.Variance()
		eng, err := sim.NewEngine(g, alg, sim.WithRNG(root.Split()))
		if err != nil {
			return sec, err
		}
		// The swap listener puts A's fused kernel on its eager path,
		// which is bit-identical to HandleTick per event.
		eng.RunUntil(10 * alg.EpochDuration())
		prev := 1.0
		for _, r := range ratios {
			if r <= floor {
				flooredStrong++
				break // deeper epochs are below measurement precision
			}
			allIncrements = append(allIncrements, 0.5*(math.Log(r)-math.Log(prev)))
			prev = r
		}
		if crossedAt > 0 {
			epochsToThreshold = append(epochsToThreshold, float64(crossedAt))
		}
	}
	if len(allIncrements) == 0 {
		return sec, fmt.Errorf("E6: no epoch increments collected")
	}

	logN := math.Log(float64(n))
	weak, hard := 0, 0
	maxInc := math.Inf(-1)
	for _, inc := range allIncrements {
		if inc > -1.5*logN {
			weak++
		}
		if inc > logN*(1+1e-9) {
			hard++
		}
		if inc > maxInc {
			maxInc = inc
		}
	}
	total := len(allIncrements) + flooredStrong
	fracWeak := float64(weak) / float64(total)
	meanInc := stats.Mean(allIncrements)

	// Compare the empirical epochs-to-e^-2 against the dominating walk's
	// prediction for the same level.
	domQ, err := walk.HittingQuantile(root.Split(), n, -1 /* half-log scale */, 1-1/math.E, 2000, 400)
	if err != nil {
		return sec, err
	}
	empQ := math.NaN()
	if len(epochsToThreshold) > 0 {
		empQ, err = stats.Quantile(epochsToThreshold, 1-1/math.E)
		if err != nil {
			return sec, err
		}
	}

	sec.Notes = append(sec.Notes, fmt.Sprintf(
		"Cycle-dumbbell n=%d: %d measurable + %d floored epochs from %d runs; empirical epochs to e^-2 q=%.3g vs dominating-walk q=%.3g.",
		n, len(allIncrements), flooredStrong, runs, empQ, domQ))
	sec.addCheck("mean measurable increment of (1/2)log var", meanInc,
		fmt.Sprintf("<= drift -(log n)/4 = %.3f is the dominance drift; required < 0", -logN/4), meanInc < 0)
	sec.addCheck("max increment", maxInc,
		fmt.Sprintf("<= log n = %.3f (hard bound, eq. 12)", logN), maxInc <= logN*(1+1e-9))
	sec.addCheck("frac weak epochs (inc > -1.5 log n)", fracWeak, "<= 1/2 (Lemma 1)", fracWeak <= 0.5)
	sec.addCheck("hard violations", float64(hard), "= 0", hard == 0)
	sec.addMetric("frac-weak", fracWeak)
	sec.addMetric("hard-violations", float64(hard))
	sec.addMetric("mean-increment", meanInc)
	sec.addMetric("max-increment", maxInc)
	sec.addMetric("empirical-epochs", empQ)
	sec.addMetric("dominating-epochs", domQ)
	return sec, nil
}

func runE7(p Params) (Section, error) {
	var sec Section
	steps := pick(p, 144, 400)
	trials := pick(p, 4000, 60000)
	ss := []float64{0.5, 1, 1.5, 2, 2.5, 3}
	fit, err := walk.FitTail(rng.New(p.Seed), steps, ss, trials)
	if err != nil {
		return sec, err
	}
	tbl := Table{
		Name:    fmt.Sprintf("P[S_n >= s sqrt(n)], n=%d, %d trials per point", steps, trials),
		Columns: []string{"s", "empirical P", "fitted c*exp(-beta s^2)"},
	}
	for i, s := range fit.S {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.4g", s),
			fmt.Sprintf("%.4g", fit.P[i]),
			fmt.Sprintf("%.4g", fit.C*math.Exp(-fit.Beta*s*s)),
		})
	}
	sec.Tables = append(sec.Tables, tbl)
	sec.addCheck("fitted beta", fit.Beta, "within [0.25, 1] around the Gaussian-limit 1/2",
		fit.Beta >= 0.25 && fit.Beta <= 1)
	sec.addCheck("fit R2", fit.R2, ">= 0.9", fit.R2 >= 0.9)
	sec.addMetric("c", fit.C)
	sec.addMetric("beta", fit.Beta)
	sec.addMetric("r2", fit.R2)
	return sec, nil
}

// swapContraction measures the one-swap contraction of the side-mean mass
// |mu1| + |mu2| starting from a perfectly mixed worst-case state.
func swapContraction(g *graph.Graph, part *graph.Partition, weight float64) (float64, error) {
	n := g.NumNodes()
	x0 := make([]float64, n)
	n1 := float64(part.Size1())
	n2 := float64(part.Size2())
	for u := 0; u < n; u++ {
		if part.SideOf(graph.NodeID(u)) == graph.Side1 {
			x0[u] = 1
		} else {
			x0[u] = -n1 / n2
		}
	}
	alg, err := core.New(g, x0, core.WithPartition(part),
		core.WithEpochTicks(1), core.WithWeight(weight))
	if err != nil {
		return 0, err
	}
	mu1a, mu2a := alg.SideMeans()
	before := math.Abs(mu1a) + math.Abs(mu2a)
	alg.HandleTick(alg.CutEdge(), 1)
	mu1b, mu2b := alg.SideMeans()
	after := math.Abs(mu1b) + math.Abs(mu2b)
	return after / before, nil
}

func runE8(p Params) (Section, error) {
	var sec Section
	n := pick(p, 32, 128)
	cases := []struct {
		label  string
		n1, n2 int
	}{
		{"symmetric", n / 2, n / 2},
		{"asymmetric", n / 8, n - n/8},
	}
	tbl := Table{
		Name:    "one-swap contraction of |mu1|+|mu2| from a perfectly mixed state",
		Columns: []string{"sides", "weight", "w/w*", "measured contraction", "predicted |1 - w/w*|"},
	}
	contractions := map[string]float64{}
	for _, c := range cases {
		g, part, err := graph.Dumbbell(c.n1, c.n2, 1)
		if err != nil {
			return sec, err
		}
		wStar := core.ExactWeight(part)
		weights := []struct {
			name string
			w    float64
		}{
			{"0.5*w*", 0.5 * wStar},
			{"w* (exact)", wStar},
			{"1.5*w*", 1.5 * wStar},
			{"n1 (paper)", core.PaperWeight(part)},
		}
		for _, wt := range weights {
			got, err := swapContraction(g, part, wt.w)
			if err != nil {
				return sec, err
			}
			pred := math.Abs(1 - wt.w/wStar)
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%s(%d,%d)", c.label, c.n1, c.n2), wt.name,
				fmt.Sprintf("%.4g", wt.w/wStar), fmt.Sprintf("%.4g", got), fmt.Sprintf("%.4g", pred),
			})
			key := fmt.Sprintf("contraction-%s-%s", c.label, wt.name)
			contractions[c.label+"/"+wt.name] = got
			sec.addMetric(key, got)
		}
	}
	sec.Tables = append(sec.Tables, tbl)
	sec.addCheck("exact weight w* on symmetric sides", contractions["symmetric/w* (exact)"],
		"~0: the swap annihilates the side means", contractions["symmetric/w* (exact)"] < 1e-9)
	sec.addCheck("paper weight n1 on symmetric sides", contractions["symmetric/n1 (paper)"],
		"= 1: the literal n1 equals 2*w* and contracts nothing",
		math.Abs(contractions["symmetric/n1 (paper)"]-1) < 1e-9)
	sec.addCheck("paper weight n1 on asymmetric sides", contractions["asymmetric/n1 (paper)"],
		"< 0.5: on very asymmetric cuts n1 ~ w* and the paper's coefficient is fine",
		contractions["asymmetric/n1 (paper)"] < 0.5)
	return sec, nil
}

func runE11(p Params) (Section, error) {
	var sec Section
	n := pick(p, 32, 64)
	g, _, x0, err := dumbbellCase(n, 1)
	if err != nil {
		return sec, err
	}
	const ratio = 1.353e-1 // e^-2, matching Definition 1's threshold
	maxRounds := 2_000_000

	first, err := syncsim.NewFirstOrder(g, x0)
	if err != nil {
		return sec, err
	}
	r1, ok1 := first.RoundsToRatio(ratio, maxRounds)

	beta, err := syncsim.OptimalBeta(g, spectral.Options{})
	if err != nil {
		return sec, err
	}
	second, err := syncsim.NewSecondOrder(g, x0, beta)
	if err != nil {
		return sec, err
	}
	r2, ok2 := second.RoundsToRatio(ratio, maxRounds)

	// Algorithm A on the same workload through the scenario layer (the
	// same estimator cells E3 uses).
	cell, err := singleCell(p, scenario.Spec{
		Graph: scenario.GraphSpec{Family: "dumbbell", N: n, Cut: 1},
		Algo:  scenario.AlgoSpec{Name: "A"},
		Stop:  scenario.StopSpec{Trials: e1Trials(p)},
	})
	if err != nil {
		return sec, err
	}
	// One asynchronous time unit fires |E| edge clocks = 2|E| node updates;
	// one synchronous round performs n node updates. Equivalent rounds:
	eqRounds := cell.Tav * 2 * float64(g.NumEdges()) / float64(n)

	tbl := Table{
		Name:    fmt.Sprintf("rounds to varX ratio e^-2, dumbbell n=%d", n),
		Columns: []string{"scheme", "rounds (or equivalent)", "converged"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"first-order diffusion", fmt.Sprintf("%d", r1), fmt.Sprintf("%v", ok1)},
		[]string{fmt.Sprintf("second-order diffusion (beta=%.3f)", beta), fmt.Sprintf("%d", r2), fmt.Sprintf("%v", ok2)},
		[]string{"algorithm A (async, node-update-normalised)", fmt.Sprintf("%.4g", eqRounds), fmt.Sprintf("%v", cell.Censored == 0)},
	)
	sec.Tables = append(sec.Tables, tbl)
	sec.addCheck("second-order speedup over first-order", float64(r1)/math.Max(1, float64(r2)),
		"> 1 (ref [5] predicts ~sqrt)", r2 < r1)
	sec.addCheck("A equivalent rounds relative to first-order", eqRounds/math.Max(1, float64(r1)),
		"< 1: both diffusions remain cut-limited, A is not", eqRounds < float64(r1))
	sec.addMetric("rounds-first", float64(r1))
	sec.addMetric("rounds-second", float64(r2))
	sec.addMetric("rounds-A-equivalent", eqRounds)
	return sec, nil
}

// E12 verifies decentralization deterministically: the distributed
// exchange rule (internal/dist) and Algorithm A (internal/core) are driven
// in lockstep over the identical tick sequence and must agree to float
// tolerance, and the rule's own trajectory must converge. The wall-clock
// runtime (shard event loops, lossy transports) is inherently
// scheduling-dependent and therefore lives in `go test ./internal/dist`
// rather than in this byte-deterministic document.
func runE12(p Params) (Section, error) {
	var sec Section
	n := pick(p, 12, 16)
	g, part, err := graph.Dumbbell(n/2, n/2, 1)
	if err != nil {
		return sec, err
	}
	x0 := gossip.CutIndicator(part)
	var0 := 1.0 // CutIndicator on a symmetric dumbbell has variance 1

	// K sized per the paper's formula K = C·(Tvan1+Tvan2)·ln n ≈ 5 for
	// this dumbbell: swaps spaced a few ticks apart let the sides mix in
	// between (see the legacy E12 discussion in git history).
	const epochK = 4
	weight := core.ExactWeight(part)

	alg, err := core.New(g, x0, core.WithPartition(part),
		core.WithEpochTicks(epochK), core.WithWeight(weight))
	if err != nil {
		return sec, err
	}
	rule, err := dist.NewSparseCutRule(part, alg.CutEdge(), epochK, weight)
	if err != nil {
		return sec, err
	}

	// Lockstep: the same uniformly-random edge sequence drives both the
	// simulator algorithm and the exchange rule applied to a raw vector.
	vals := append([]float64(nil), x0...)
	r := rng.New(p.Seed)
	events := pick(p, 4000, 20000)
	maxDiv := 0.0
	for i := 0; i < events; i++ {
		e := graph.EdgeID(r.Intn(g.NumEdges()))
		a, b := g.Edge(e).U, g.Edge(e).V
		d := rule.Delta(e, a, vals[a], vals[b])
		vals[a] += d
		vals[b] -= d
		alg.HandleTick(e, float64(i))
		for u, x := range alg.Values() {
			if div := math.Abs(x - vals[u]); div > maxDiv {
				maxDiv = div
			}
		}
	}
	var mean, varX float64
	for _, x := range vals {
		mean += x
	}
	mean /= float64(len(vals))
	for _, x := range vals {
		varX += (x - mean) * (x - mean)
	}
	varX /= float64(len(vals))

	tbl := Table{
		Name:    fmt.Sprintf("lockstep: dist exchange rule vs Algorithm A, dumbbell n=%d, %d ticks", n, events),
		Columns: []string{"quantity", "value"},
	}
	tbl.Rows = append(tbl.Rows,
		[]string{"swaps fired (rule)", fmt.Sprintf("%d", rule.Swaps())},
		[]string{"max value divergence", fmt.Sprintf("%.3g", maxDiv)},
		[]string{"rule-side final var ratio", fmt.Sprintf("%.3g", varX/var0)},
		[]string{"rule-side mean drift", fmt.Sprintf("%.3g", math.Abs(mean-alg.Mean()))},
	)
	sec.Tables = append(sec.Tables, tbl)
	sec.addCheck("max divergence between rule and simulator values", maxDiv,
		"< 1e-9 (identical update algebra, float-rounding apart)", maxDiv < 1e-9)
	sec.addCheck("swaps fired by the rule", float64(rule.Swaps()),
		"> 0 (the non-convex path is exercised)", rule.Swaps() > 0)
	sec.addCheck("rule-side final variance ratio", varX/var0,
		"< 1e-3 (the decentralized rule converges)", varX/var0 < 1e-3)
	sec.addMetric("ratio@sim", varX/var0)
	sec.addMetric("max-divergence", maxDiv)
	sec.Notes = append(sec.Notes,
		"The live sharded runtime (one event loop per shard over Chan/Drop/Delay/TCP transports, message loss, abort accounting) is exercised by `go test ./internal/dist -race` and `go run ./cmd/distrun -compare`; its wall-clock scheduling is nondeterministic by nature and is excluded from this byte-deterministic document.")
	return sec, nil
}

// singleCell evaluates one scenario through the sweep engine (so it
// shares the estimator pathway and seed discipline of the grids).
func singleCell(p Params, spec scenario.Spec) (sweep.Cell, error) {
	rep, err := sweep.Run(sweep.Grid{Base: spec}, sweep.Config{Workers: 1, Seed: p.Seed})
	if err != nil {
		return sweep.Cell{}, err
	}
	c := rep.Cells[0]
	if c.Error != "" {
		return c, fmt.Errorf("cell %s: %s", c.Label, c.Error)
	}
	return c, nil
}
