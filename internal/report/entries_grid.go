package report

// The grid-backed experiments: every cell is a scenario.Spec evaluated by
// the deterministic sweep engine on the replica-batched engine, with the
// paper's predicted bounds computed per cell from internal/spectral.

import (
	"fmt"
	"math"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/core"
	"sparsecut/internal/cut"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
	"sparsecut/internal/spectral"
	"sparsecut/internal/sweep"
)

func init() {
	register(Entry{
		ID:    "E1",
		Title: "convex lower bound — Tav scaling in n on the dumbbell",
		Claim: "Theorem 1: any algorithm in C has Tav = Omega(min(|V1|,|V2|)/|E12|); on the symmetric dumbbell with one cut edge this is Omega(n)",
		Run:   runE1,
	})
	register(Entry{
		ID:    "E2",
		Title: "convex lower bound — Tav scaling in |E12|",
		Claim: "Theorem 1: Tav = Omega(n1/|E12|) — doubling the cut halves the bound",
		Run:   runE2,
	})
	register(Entry{
		ID:    "E3",
		Title: "Algorithm A — Tav scaling in n on the dumbbell",
		Claim: "Theorem 2 + example: Tav(A) = O(log n (Tvan(G1)+Tvan(G2))) = O(polylog n) on the dumbbell",
		Run:   runE3,
	})
	register(Entry{
		ID:    "E4",
		Title: "headline separation — Algorithm A vs the best convex baseline",
		Claim: "Section 1 example G': convex Omega(n) vs A O(log n) — an exponential separation in n",
		Run:   runE4,
	})
	register(Entry{
		ID:    "E9",
		Title: "ablation: epoch constant C and Tvan estimator",
		Claim: "Algorithm A needs C 'sufficiently large'; small C under-mixes the sides before a swap and stalls convergence",
		Run:   runE9,
	})
	register(Entry{
		ID:    "E10",
		Title: "beyond the dumbbell: planted partitions and walled geometric graphs",
		Claim: "Section 1: A outperforms convex algorithms whenever G1, G2 are internally well connected but poorly connected to each other — including when the cut must be discovered",
		Run:   runE10,
	})
	register(Entry{
		ID:    "E13",
		Title: "extension: node-clock model (footnote 1) and heterogeneous edge rates",
		Claim: "Footnote 1: the edge-clock model simulates the node-clock model (and vice versa); Algorithm A's separation survives degree-dependent and random rate heterogeneity",
		Run:   runE13,
	})
	register(Entry{
		ID:    "E14",
		Title: "extension: swapping over all cut edges (vs the paper's single ec)",
		Claim: "The paper ignores cut edges other than ec; rotating the swap over all of E12 shortens epochs by ~|E12| at identical per-swap semantics",
		Run:   runE14,
	})
}

// dumbbellBase is the shared base spec of the dumbbell experiments.
func dumbbellBase(trials int) scenario.Spec {
	return scenario.Spec{
		Graph: scenario.GraphSpec{Family: "dumbbell", Cut: 1},
		Stop:  scenario.StopSpec{Trials: trials},
	}
}

func e1Trials(p Params) int { return pick(p, 3, 7) }

func runE1(p Params) (Section, error) {
	var sec Section
	grid := sweep.Grid{
		Base:   dumbbellBase(e1Trials(p)),
		Ns:     pick(p, []int{16, 32, 64}, []int{32, 64, 128, 256}),
		Algos:  []string{"convex"},
		Alphas: []float64{0.5, 0.75},
	}
	cells, err := runGrid(&sec, gridTable{name: "convex averaging time, symmetric dumbbell, 1 cut edge", grid: grid}, p)
	if err != nil {
		return sec, err
	}
	vanilla := cellsWhere(cells, func(s scenario.Spec) bool { return s.Algo.Alpha == 0.5 })
	var ns, tavs []float64
	for _, c := range vanilla {
		ns = append(ns, float64(c.Nodes))
		tavs = append(tavs, c.Tav)
		sec.addMetric(fmt.Sprintf("tav-vanilla@%d", c.Nodes), c.Tav)
	}
	if err := slopeCheck(&sec, "log-log slope of Tav(vanilla) vs n", ns, tavs,
		"Theorem 1 predicts ~linear growth: slope >= 0.7", func(s float64) bool { return s >= 0.7 }); err != nil {
		return sec, err
	}
	return sec, nil
}

func runE2(p Params) (Section, error) {
	var sec Section
	n := pick(p, 48, 128)
	base := dumbbellBase(e1Trials(p))
	base.Graph.N = n
	grid := sweep.Grid{
		Base:  base,
		Cuts:  pick(p, []int{1, 2, 4}, []int{1, 2, 4, 8, 16}),
		Algos: []string{"vanilla"},
	}
	cells, err := runGrid(&sec, gridTable{name: fmt.Sprintf("vanilla averaging time vs cut size, dumbbell n=%d", n), grid: grid}, p)
	if err != nil {
		return sec, err
	}
	var ks, tavs []float64
	for _, c := range cells {
		ks = append(ks, float64(c.CutSize))
		tavs = append(tavs, c.Tav)
		sec.addMetric(fmt.Sprintf("tav@k=%d", c.CutSize), c.Tav)
	}
	if err := slopeCheck(&sec, "log-log slope of Tav vs |E12|", ks, tavs,
		"Theorem 1 predicts ~1/|E12| decay: slope <= -0.4", func(s float64) bool { return s <= -0.4 }); err != nil {
		return sec, err
	}
	return sec, nil
}

func runE3(p Params) (Section, error) {
	var sec Section
	grid := sweep.Grid{
		Base:  dumbbellBase(e1Trials(p)),
		Ns:    pick(p, []int{16, 32, 64}, []int{32, 64, 128, 256, 512}),
		Algos: []string{"A"},
	}
	cells, err := runGrid(&sec, gridTable{name: "Algorithm A averaging time, symmetric dumbbell, 1 cut edge", grid: grid}, p)
	if err != nil {
		return sec, err
	}
	var ns, tavs []float64
	for _, c := range cells {
		ns = append(ns, float64(c.Nodes))
		tavs = append(tavs, c.Tav)
		sec.addMetric(fmt.Sprintf("tav-A@%d", c.Nodes), c.Tav)
	}
	if err := slopeCheck(&sec, "log-log slope of Tav(A) vs n", ns, tavs,
		"Theorem 2 predicts polylog growth: slope <= 0.6", func(s float64) bool { return s <= 0.6 }); err != nil {
		return sec, err
	}
	return sec, nil
}

func runE4(p Params) (Section, error) {
	var sec Section
	// The separation needs n1/|E12| >> ln n * (Tvan1+Tvan2): below n ~ 32
	// the regimes have not separated yet, so quick mode starts there.
	grid := sweep.Grid{
		Base:  dumbbellBase(e1Trials(p)),
		Ns:    pick(p, []int{32, 64}, []int{32, 64, 128, 256}),
		Algos: []string{"vanilla", "A"},
	}
	cells, err := runGrid(&sec, gridTable{name: "headline separation on the symmetric dumbbell (G' of Section 1)", grid: grid}, p)
	if err != nil {
		return sec, err
	}
	var speedups []float64
	for i := 0; i+1 < len(cells); i += 2 {
		van, algA := cells[i], cells[i+1] // algos axis order: vanilla, A
		speedup := van.Tav / algA.Tav
		speedups = append(speedups, speedup)
		sec.addCheck(fmt.Sprintf("speedup of A over vanilla at n=%d", van.Nodes), speedup,
			"> 1 at every size", speedup > 1)
		sec.addMetric(fmt.Sprintf("speedup@%d", van.Nodes), speedup)
	}
	if len(speedups) >= 2 {
		growth := speedups[len(speedups)-1] / speedups[0]
		sec.addCheck("speedup growth from smallest to largest n", growth,
			"> 1: the separation widens with n", growth > 1)
		sec.addMetric("speedup-growth", growth)
	}
	return sec, nil
}

func runE9(p Params) (Section, error) {
	var sec Section
	n := pick(p, 32, 128)
	base := dumbbellBase(e1Trials(p))
	base.Graph.N = n
	grid := sweep.Grid{
		Base:    base,
		Algos:   []string{"A"},
		EpochCs: []float64{0.5, 1, 2, 4, 8},
	}
	// Sub-unit C deliberately under-mixes: the theorems make no claim
	// there, so those cells render informational.
	cells, err := runGrid(&sec, gridTable{
		name:          fmt.Sprintf("epoch constant sweep, dumbbell n=%d", n),
		grid:          grid,
		informational: func(s scenario.Spec) bool { return s.Algo.EpochC < 1 },
	}, p)
	if err != nil {
		return sec, err
	}
	for _, c := range cells {
		sec.addMetric(fmt.Sprintf("tav@C=%g", c.Spec.Algo.EpochC), c.Tav)
	}
	generous := cellsWhere(cells, func(s scenario.Spec) bool { return s.Algo.EpochC == 8 })
	if len(generous) == 1 {
		sec.addCheck("Tav at generous C=8", generous[0].Tav, "> 0 and uncensored (converges)",
			generous[0].Tav > 0 && generous[0].Censored == 0)
	}

	// Estimator robustness: a deliberately 3x-inflated user-supplied Tvan
	// must inflate the epoch K linearly, never shrink it.
	r, err := scenario.Spec{Graph: scenario.GraphSpec{Family: "dumbbell", N: n, Cut: 1}, Algo: scenario.AlgoSpec{Name: "A"}, Seed: p.Seed}.Resolve()
	if err != nil {
		return sec, err
	}
	tv1, tv2, err := spectral.SideTvanBounds(r.Partition, spectral.Options{})
	if err != nil {
		return sec, err
	}
	algSpec, err := core.New(r.Graph, r.X0, core.WithPartition(r.Partition))
	if err != nil {
		return sec, err
	}
	algUser, err := core.New(r.Graph, r.X0, core.WithPartition(r.Partition), core.WithTvan(3*tv1, 3*tv2))
	if err != nil {
		return sec, err
	}
	kSpec, kUser := float64(algSpec.EpochTicks()), float64(algUser.EpochTicks())
	sec.addCheck("K from 3x-inflated Tvan estimate vs spectral K", kUser/kSpec,
		">= 1 (conservative estimates only lengthen epochs)", kUser >= kSpec)
	sec.addMetric("K-spectral", kSpec)
	sec.addMetric("K-inflated", kUser)
	sec.Notes = append(sec.Notes,
		fmt.Sprintf("Tvan estimators: spectral bound (%.4g, %.4g) gives K=%d; 3x inflated gives K=%d.", tv1, tv2, algSpec.EpochTicks(), algUser.EpochTicks()))
	return sec, nil
}

func runE10(p Params) (Section, error) {
	var sec Section
	trials := pick(p, 3, 5)
	type workload struct {
		family string
		n      int
	}
	// Cut sizes are kept genuinely sparse (E[|E12|] ~ 3 and 1 door): with
	// a denser cut, Theorem 1's bound n1/|E12| shrinks and there is
	// nothing for A to win — the experiment is about the sparse-cut
	// regime (the family defaults encode exactly that).
	loads := []workload{
		{"planted", pick(p, 60, 120)},
		{"sensor", pick(p, 60, 150)},
	}
	for _, wl := range loads {
		grid := sweep.Grid{
			Base: scenario.Spec{
				Graph: scenario.GraphSpec{Family: wl.family, N: wl.n},
				Stop:  scenario.StopSpec{Trials: trials, MaxTime: 40 * float64(wl.n)},
			},
			Algos: []string{"vanilla", "A"},
		}
		cells, err := runGrid(&sec, gridTable{name: fmt.Sprintf("%s, n=%d", wl.family, wl.n), grid: grid}, p)
		if err != nil {
			return sec, err
		}
		if len(cells) != 2 {
			return sec, fmt.Errorf("E10: %s produced %d cells, want 2", wl.family, len(cells))
		}
		van, algA := cells[0], cells[1]
		speedup := van.Tav / algA.Tav
		sec.addCheck(fmt.Sprintf("speedup of A over vanilla on %s", wl.family), speedup,
			"> 1", speedup > 1)
		sec.addMetric("speedup-"+wl.family, speedup)

		// Cut discovery: spectral bisection must find a sparse cut of the
		// same order as the planted one without being told.
		r, err := van.Spec.Resolve()
		if err != nil {
			return sec, err
		}
		detected, _, err := cut.Detect(r.Graph, spectral.Options{})
		if err != nil {
			return sec, err
		}
		sec.addCheck(fmt.Sprintf("spectral cut detection on %s: |E12| detected / planted", wl.family),
			float64(detected.CutSize())/math.Max(1, float64(r.Partition.CutSize())),
			"<= 2 (detector finds a comparably sparse cut unaided)",
			detected.CutSize() > 0 && float64(detected.CutSize()) <= 2*math.Max(1, float64(r.Partition.CutSize())))
		sec.addMetric("detected-cut-"+wl.family, float64(detected.CutSize()))

		// The paper's K formula is defined in terms of the true side Tvans.
		// On irregular graphs the spectral 6/λ2 default overestimates them,
		// so the empirical estimator pathway (vanilla's measured Tav from a
		// spike -> core.WithTvan) exists for tighter epochs; verify the
		// ordering the deviation note in DESIGN.md §3 relies on.
		if wl.family == "planted" {
			tvS1, tvS2, err := spectral.SideTvanBounds(detected, spectral.Options{})
			if err != nil {
				return sec, err
			}
			var tvM1, tvM2 float64
			for i, s := range []graph.Side{graph.Side1, graph.Side2} {
				sub, _ := detected.Subgraph(s)
				// Vanilla's Tav from a spike (all variance at one node),
				// which excites every decay mode, stands in for Definition
				// 1's worst-case start.
				x0, err := gossip.Spike(sub.NumNodes(), 0)
				if err != nil {
					return sec, err
				}
				res, err := avgtime.EstimateBatched(sub, nil, func(replicas int, _ []*rng.RNG) (sim.BatchKernel, error) {
					return gossip.NewVanillaEnsemble(sub, x0, replicas)
				}, avgtime.Config{
					Trials:       5,
					Seed:         p.Seed + uint64(i),
					MaxTime:      10 * float64(sub.NumNodes()),
					MarginFactor: 1, // vanilla is monotone
				})
				if err != nil {
					return sec, fmt.Errorf("measuring Tvan of %v side: %w", s, err)
				}
				if i == 0 {
					tvM1 = res.Tav
				} else {
					tvM2 = res.Tav
				}
			}
			sec.addCheck("measured side Tvans vs spectral bound on planted (sum ratio)",
				(tvM1+tvM2)/math.Max(tvS1+tvS2, 1e-12),
				"<= 1.5 (6/λ2 upper-bounds the true Tvan; the empirical estimator is the tighter K input)",
				tvM1+tvM2 <= 1.5*(tvS1+tvS2))
			sec.addMetric("tvan-measured-sum", tvM1+tvM2)
			sec.addMetric("tvan-spectral-sum", tvS1+tvS2)
		}
	}
	return sec, nil
}

func runE13(p Params) (Section, error) {
	var sec Section
	n := pick(p, 48, 128)
	base := dumbbellBase(e1Trials(p))
	base.Graph.N = n
	grid := sweep.Grid{
		Base:  base,
		Algos: []string{"vanilla", "A"},
		Rates: []string{"uniform", "nodeclock", "random"},
	}
	cells, err := runGrid(&sec, gridTable{name: fmt.Sprintf("timing-model robustness, dumbbell n=%d", n), grid: grid}, p)
	if err != nil {
		return sec, err
	}
	for _, model := range []string{"uniform", "nodeclock", "random"} {
		sel := cellsWhere(cells, func(s scenario.Spec) bool { return s.Rates == model })
		if len(sel) != 2 {
			return sec, fmt.Errorf("E13: %s produced %d cells, want 2", model, len(sel))
		}
		van, algA := sel[0], sel[1]
		speedup := van.Tav / algA.Tav
		sec.addCheck(fmt.Sprintf("speedup of A over vanilla, %s clocks", model), speedup,
			"> 1: the separation survives the timing model", speedup > 1)
		sec.addMetric("speedup-"+model, speedup)
	}
	sec.Notes = append(sec.Notes,
		"Under the node-clock model the cut edge ticks at rate ~4/n instead of 1, slowing both algorithms across the cut; bounds are only claimed for the paper's uniform model (heterogeneous-rate rows are informational).")
	return sec, nil
}

func runE14(p Params) (Section, error) {
	var sec Section
	n := pick(p, 48, 128)
	cuts := pick(p, []int{2, 4}, []int{2, 4, 8, 16})
	base := dumbbellBase(e1Trials(p))
	base.Graph.N = n
	single := sweep.Grid{Base: base, Cuts: cuts, Algos: []string{"A"}}
	allBase := base
	allBase.Algo = scenario.AlgoSpec{Name: "A", AllCutEdges: true}
	all := sweep.Grid{Base: allBase, Cuts: cuts}

	singleCells, err := runGrid(&sec, gridTable{name: fmt.Sprintf("paper's single designated ec, dumbbell n=%d", n), grid: single}, p)
	if err != nil {
		return sec, err
	}
	allCells, err := runGrid(&sec, gridTable{name: fmt.Sprintf("all-cut-edges extension (scaled K), dumbbell n=%d", n), grid: all}, p)
	if err != nil {
		return sec, err
	}
	if len(singleCells) != len(allCells) {
		return sec, fmt.Errorf("E14: %d single vs %d all cells", len(singleCells), len(allCells))
	}
	for i := range singleCells {
		k := singleCells[i].CutSize
		gain := singleCells[i].Tav / allCells[i].Tav
		sec.addCheck(fmt.Sprintf("gain of all-cut-edges over single ec at |E12|=%d", k), gain,
			"~1, never ~|E12| (epochs are mixing-limited, the paper's single ec is essentially optimal): 0.3 <= gain <= 4",
			gain >= 0.3 && gain <= 4)
		sec.addMetric(fmt.Sprintf("gain@k=%d", k), gain)
	}
	sec.Notes = append(sec.Notes,
		"The naive unscaled variant (single-edge K on the |E12|x faster shared counter) swaps before the sides re-mix and degrades sharply as |E12| grows — WithEpochTicks bypasses the scaling if you want to reproduce it; the scaled variant above is the sound form of the extension.")
	return sec, nil
}
