package report

import (
	"fmt"
	"math"

	"sparsecut/internal/scenario"
	"sparsecut/internal/spectral"
	"sparsecut/internal/stats"
	"sparsecut/internal/sweep"
)

// Margin constants of the PASS/FAIL convention (DESIGN.md §9). Theorems 1
// and 2 are asymptotic — their absolute constants are not stated by the
// paper — so the checks demand the measured Tav lands within a documented
// constant factor of the bound's *shape*; the spectral ceiling 6/λ2 is a
// rigorous finite-n bound and gets only a Monte-Carlo noise allowance.
const (
	// Theorem1Margin: a convex-class measurement passes the Ω(n1/|E12|)
	// lower bound when Tav ≥ Theorem1Margin · min(|V1|,|V2|)/|E12|.
	Theorem1Margin = 0.2
	// SpectralMargin: a convex-class measurement passes the spectral
	// ceiling when Tav ≤ SpectralMargin · 6/λ2. The bound is rigorous
	// for the true Tav; the allowance covers empirical-quantile noise at
	// small trial counts.
	SpectralMargin = 1.25
	// Theorem2Margin: an Algorithm A measurement passes Theorem 2's
	// ceiling when Tav ≤ Theorem2Margin · max(C,1)·ln n·(1+Tvan1+Tvan2)
	// with the spectral side bounds as the Tvan estimates.
	Theorem2Margin = 6.0
)

// cellBounds carries one cell's predicted bounds: the Theorem 1 lower
// bound and the applicable upper ceiling (0 = not applicable).
type cellBounds struct {
	lower float64 // Theorem 1: min(|V1|,|V2|)/|E12|
	upper float64 // 6/λ2 (convex class) or Theorem 2 shape (Algorithm A)
}

// boundsFor re-resolves the cell's spec (deterministic: the spec embeds
// its seed) and computes the paper's predicted bounds from the spectra.
//
// Bounds only apply under the paper's timing model (uniform rate-1 edge
// clocks): heterogeneous-rate cells get no bounds and render
// informational. Families without a planted partition get no Theorem 1
// lower bound; Algorithm A cells need a partition for the side spectra.
func boundsFor(c sweep.Cell) (cellBounds, error) {
	var b cellBounds
	if c.Spec.Rates != "" && c.Spec.Rates != "uniform" {
		return b, nil
	}
	r, err := c.Spec.Resolve()
	if err != nil {
		return b, fmt.Errorf("re-resolving %s: %w", c.Label, err)
	}
	if r.Implicit != nil {
		// Sharded cells never materialise the graph, so the spectral
		// ceilings are unavailable; only the combinatorial Theorem 1 bound
		// of the prefix partition applies.
		if sp := r.Implicit.SplitPoint(); sp > 0 {
			if cut := prefixCutSize(r.Implicit); cut > 0 {
				n := r.Implicit.NumNodes()
				if sp > n-sp {
					sp = n - sp
				}
				b.lower = float64(sp) / float64(cut)
			}
		}
		return b, nil
	}
	opts := spectral.Options{}
	switch r.Spec.Algo.Name {
	case "vanilla", "convex", "pushsum":
		if r.Partition != nil {
			b.lower = r.Partition.TheoremOneBound()
		}
		up, err := spectral.TvanBound(r.Graph, opts)
		if err != nil {
			return b, fmt.Errorf("TvanBound(%s): %w", c.Label, err)
		}
		if !math.IsInf(up, 1) {
			b.upper = up
		}
	case "A":
		if r.Partition != nil {
			tv1, tv2, err := spectral.SideTvanBounds(r.Partition, opts)
			if err != nil {
				return b, fmt.Errorf("SideTvanBounds(%s): %w", c.Label, err)
			}
			b.upper = spectral.TheoremTwoBound(r.Graph.NumNodes(), tv1, tv2, r.Spec.Algo.EpochC)
		}
	}
	return b, nil
}

// verdictFor applies the margin convention, censoring-aware: censored
// cells report Tav as a lower bound on the truth, so a lower-bound check
// can still PASS definitively, an upper-bound check can still FAIL
// definitively, and everything else is CENS (inconclusive).
func verdictFor(c sweep.Cell, b cellBounds) Verdict {
	if b.lower == 0 && b.upper == 0 {
		return None
	}
	censored := c.Censored > 0
	if b.lower > 0 && c.Tav < Theorem1Margin*b.lower {
		if censored {
			return Cens // true Tav may still exceed the requirement
		}
		return Fail
	}
	if b.upper > 0 {
		limit := b.upper
		if c.Spec.Algo.Name == "A" {
			limit *= Theorem2Margin
		} else {
			limit *= SpectralMargin
		}
		if c.Tav > limit {
			return Fail // even the censored lower bound exceeds the ceiling
		}
		if censored {
			return Cens // truncated below the ceiling: cannot conclude
		}
	}
	return Pass
}

// gridTable describes one grid-backed measured-vs-bound table.
type gridTable struct {
	// name titles the table.
	name string
	// grid is the scenario grid, run through the sweep engine.
	grid sweep.Grid
	// informational marks cells whose bounds are shown but not claimed
	// (verdict "-"): the experiment sweeps outside the theorems' regime
	// on purpose (e.g. E9's deliberately-too-small epoch constants).
	informational func(s scenario.Spec) bool
}

// gridColumns is the shared layout of measured-vs-bound tables.
var gridColumns = []string{
	"cell", "n", "|E|", "|E12|", "trials", "cens",
	"Tav", "lower Ω", "upper O", "verdict",
}

// fnum renders a float like internal/table does (4 significant digits),
// with "-" for zero-valued bounds.
func fnum(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// runGrid executes the grid on the sweep engine, computes per-cell bounds
// and verdicts, appends the rendered table to sec, and returns the cells
// for derived checks. Cell errors abort: the reproduction must be
// complete, not best-effort.
func runGrid(sec *Section, gt gridTable, p Params) ([]sweep.Cell, error) {
	rep, err := sweep.Run(gt.grid, sweep.Config{Workers: p.Workers, Seed: p.Seed, Cache: p.cache})
	if err != nil {
		return nil, err
	}
	tbl := Table{Name: gt.name, Columns: gridColumns}
	for _, c := range rep.Cells {
		if c.Error != "" {
			return nil, fmt.Errorf("cell %s: %s", c.Label, c.Error)
		}
		b, err := boundsFor(c)
		if err != nil {
			return nil, err
		}
		v := verdictFor(c, b)
		if gt.informational != nil && gt.informational(c.Spec) {
			v = None
		}
		sec.countVerdict(v)
		tbl.Rows = append(tbl.Rows, []string{
			c.Label,
			fmt.Sprintf("%d", c.Nodes),
			fmt.Sprintf("%d", c.Edges),
			fmt.Sprintf("%d", c.CutSize),
			fmt.Sprintf("%d", c.Trials),
			fmt.Sprintf("%d", c.Censored),
			c.TavString(),
			fnum(b.lower),
			fnum(b.upper),
			string(v),
		})
	}
	sec.Tables = append(sec.Tables, tbl)
	return rep.Cells, nil
}

// cellsWhere filters cells by predicate, preserving order.
func cellsWhere(cells []sweep.Cell, keep func(s scenario.Spec) bool) []sweep.Cell {
	var out []sweep.Cell
	for _, c := range cells {
		if keep(c.Spec) {
			out = append(out, c)
		}
	}
	return out
}

// slopeCheck fits log Tav against log x over the cells and records the
// fitted exponent as a derived check.
func slopeCheck(sec *Section, name string, xs, tavs []float64, requirement string, pass func(slope float64) bool) error {
	fit, err := stats.LogLogFit(xs, tavs)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	sec.addCheck(name, fit.Slope, requirement, pass(fit.Slope))
	sec.addMetric("slope", fit.Slope)
	sec.addMetric("r2", fit.R2)
	return nil
}
