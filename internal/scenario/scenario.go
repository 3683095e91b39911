// Package scenario turns a declarative description of one simulation
// setup — graph family and parameters, algorithm and options, initial
// vector, clock-rate model, stop condition — into the concrete objects the
// engines consume (graph.Graph, gossip.Algorithm factories, avgtime
// configs). A registry names the graph families the workloads run: five
// sparse-cut families and the three small graphs the model checker
// explores. The CLIs and the sweep engine reach each of them through one
// schema.
//
// Specs are plain structs with JSON tags: they parse as the base of a
// sweep grid file (cmd/sweep -spec) or, for the graph, from the flags
// GraphFlags registers, and round-trip
// losslessly, which is what makes sweep reports self-describing and
// replayable. Every command that takes one graph (gossipsim, graphgen,
// distrun, mcheck) registers GraphFlags and builds the graph with
// Resolve, so equal flags and seed give an equal graph in each;
// Resolved.SwapParams gives the live runtimes Algorithm A's rule as
// numbers.
//
// Key types: Spec (GraphSpec/AlgoSpec/StopSpec), Family and the registry, Resolved. Schema and seed-splitting are DESIGN.md §7.
package scenario

import "fmt"

// GraphSpec selects and parameterises a graph family. Only the fields a
// family consumes are meaningful; Resolve fills family defaults for the
// rest (derived from N where sensible) so a spec with just Family and N is
// complete.
type GraphSpec struct {
	// Family names a registry entry (see Families for the catalogue).
	Family string `json:"family"`
	// N is the total node count. The ring of cliques derives its clique
	// size from N and Blocks.
	N int `json:"n,omitempty"`
	// N1, N2 override the side split of two-sided families (dumbbell,
	// planted). Default: N/2 and N-N/2.
	N1 int `json:"n1,omitempty"`
	N2 int `json:"n2,omitempty"`
	// Cut is the number of cut edges: dumbbell and torus-dumbbell cut
	// edges, sensor doors, ring-of-cliques bridges per joint.
	Cut int `json:"cut,omitempty"`
	// Blocks is the ring-of-cliques clique count.
	Blocks int `json:"blocks,omitempty"`
	// PIn, POut are the planted-partition densities.
	PIn  float64 `json:"p_in,omitempty"`
	POut float64 `json:"p_out,omitempty"`
	// Radius scales the sensor field's connection radius as a multiple of
	// the standard connectivity radius sqrt(2 ln n / n). Default 2.
	Radius float64 `json:"radius,omitempty"`
}

// AlgoSpec selects and parameterises a gossip algorithm.
type AlgoSpec struct {
	// Name is one of: "vanilla", "convex", "pushsum", "A" (Algorithm A).
	Name string `json:"name"`
	// Alpha is the convex mixing parameter (default 0.5 = vanilla rule).
	Alpha float64 `json:"alpha,omitempty"`
	// Weight selects Algorithm A's swap coefficient: "exact" (default),
	// "paper", or "custom" (then W holds the value).
	Weight string  `json:"weight,omitempty"`
	W      float64 `json:"w,omitempty"`
	// EpochC sets the paper's constant C in K = ceil(C*(Tvan1+Tvan2)*ln n).
	EpochC float64 `json:"epoch_c,omitempty"`
	// EpochTicks fixes the swap period K directly (overrides EpochC).
	EpochTicks int64 `json:"epoch_ticks,omitempty"`
	// AllCutEdges enables Algorithm A's multi-cut-edge extension: the
	// swap counter and the swap itself rotate over every cut edge instead
	// of the paper's single designated ec, with K scaled by |E12| to keep
	// epochs mixing-limited (experiment E14).
	AllCutEdges bool `json:"all_cut_edges,omitempty"`
}

// StopSpec sets the Monte-Carlo estimator's budget.
type StopSpec struct {
	// Trials is the number of independent trials (default 5).
	Trials int `json:"trials,omitempty"`
	// MaxTime censors each trial (default 60*N, the experiment suite's
	// horizon — generous for Algorithm A, tight enough to censor convex
	// runs that Theorem 1 says cannot finish).
	MaxTime float64 `json:"max_time,omitempty"`
	// Shards > 0 routes the run onto the sharded PDES engine over the
	// family's implicit representation (dumbbell and ringofcliques,
	// vanilla + uniform rates only):
	// Shards is the worker-goroutine cap per trial. Wall-clock only: the
	// tiling and RNG streams are fixed by the graph, so the estimate is
	// byte-identical for any positive value.
	Shards int `json:"shards,omitempty"`
	// Window is the sharded engine's barrier spacing Δ (0 =
	// sim.DefaultWindow). Unlike Shards it affects the result: tracked
	// times resolve to within one window.
	Window float64 `json:"window,omitempty"`
}

// Spec is a complete scenario: everything needed to reproduce one
// (graph, algorithm, parameters) Monte-Carlo cell from a seed.
type Spec struct {
	Graph GraphSpec `json:"graph"`
	Algo  AlgoSpec  `json:"algo"`
	// Init selects the initial vector: "worstcase" (default; the paper's
	// cut indicator, falling back to a spectral-detected cut and then to a
	// spike on families without a planted partition), "spike", "random",
	// "gaussian", "linear".
	Init string `json:"init,omitempty"`
	// Rates selects the clock-rate model: "uniform" (default, the paper's
	// rate-1 edge clocks), "nodeclock" (Boyd et al.'s node-clock model as
	// degree-dependent edge rates), "random" (i.i.d. U[0.5,2) per edge).
	Rates string   `json:"rates,omitempty"`
	Stop  StopSpec `json:"stop,omitempty"`
	// Seed makes everything deterministic: graph sampling, initial vector
	// randomness, and the trial streams all derive from it (default 1).
	Seed uint64 `json:"seed,omitempty"`
}

// Label renders a compact human-readable cell identifier, used in sweep
// reports and progress output.
func (s Spec) Label() string {
	l := fmt.Sprintf("%s/n=%d", s.Graph.Family, s.Graph.N)
	if s.Graph.Cut > 0 {
		l += fmt.Sprintf("/cut=%d", s.Graph.Cut)
	}
	l += "/" + s.Algo.Name
	if s.Algo.Name == "convex" && s.Algo.Alpha != 0 && s.Algo.Alpha != 0.5 {
		l += fmt.Sprintf("(%.3g)", s.Algo.Alpha)
	}
	if s.Algo.EpochC != 0 {
		l += fmt.Sprintf("/C=%.3g", s.Algo.EpochC)
	}
	if s.Algo.Weight != "" && s.Algo.Weight != "exact" {
		l += "/w=" + s.Algo.Weight
	}
	if s.Algo.AllCutEdges {
		l += "/allcut"
	}
	if s.Rates != "" && s.Rates != "uniform" {
		l += "/" + s.Rates
	}
	if s.Stop.Shards > 0 {
		l += fmt.Sprintf("/shards=%d", s.Stop.Shards)
	}
	return l
}

// withDefaults fills the family-independent defaults. Family-specific
// graph defaults are applied by the registry entry during Resolve.
func (s Spec) withDefaults() Spec {
	if s.Graph.Family == "" {
		s.Graph.Family = "dumbbell"
	}
	if s.Graph.N == 0 && s.Graph.N1 == 0 && s.Graph.Blocks == 0 {
		s.Graph.N = 64
	}
	if s.Algo.Name == "" {
		s.Algo.Name = "vanilla"
	}
	if s.Algo.Alpha == 0 {
		s.Algo.Alpha = 0.5
	}
	if s.Algo.Weight == "" {
		s.Algo.Weight = "exact"
	}
	if s.Init == "" {
		s.Init = "worstcase"
	}
	if s.Rates == "" {
		s.Rates = "uniform"
	}
	if s.Stop.Trials == 0 {
		s.Stop.Trials = 5
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}
