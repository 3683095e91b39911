package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Family is one registry entry: a named graph generator with its
// parameter conventions.
type Family struct {
	// Name is the canonical spelling used in specs and flags.
	Name string
	// Aliases are accepted alternative spellings.
	Aliases []string
	// Brief is a one-line description for CLI usage text.
	Brief string
	// Params summarises which GraphSpec fields the family reads.
	Params string
	// Partitioned reports whether Build returns a planted sparse-cut
	// partition (nil otherwise; consumers fall back to detection).
	Partitioned bool
	// Random reports whether Build consumes randomness.
	Random bool
	// Defaults fills family-specific GraphSpec defaults in place. The
	// family-independent defaults (N etc.) are already applied.
	Defaults func(*GraphSpec)
	// Build constructs the graph (and partition when Partitioned). The RNG
	// is only consumed by Random families.
	Build func(GraphSpec, *rng.RNG) (*graph.Graph, *graph.Partition, error)
	// Implicit, when non-nil, constructs the family's implicit (clique
	// blocks plus cross edges) representation for the sharded large-run
	// engine. Same parameter conventions as Build.
	Implicit func(GraphSpec) (*graph.Implicit, error)
}

// registry maps every name and alias to its family.
var registry = map[string]*Family{}
var families []*Family

func register(f Family) {
	fp := &f
	families = append(families, fp)
	for _, name := range append([]string{f.Name}, f.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := registry[key]; dup {
			panic("scenario: duplicate family name " + key)
		}
		registry[key] = fp
	}
}

// Lookup finds a family by name or alias (case-insensitive).
func Lookup(name string) (*Family, bool) {
	f, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	return f, ok
}

// Families returns the catalogue sorted by canonical name.
func Families() []Family {
	out := make([]Family, len(families))
	for i, f := range families {
		out[i] = *f
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// implicitFamilies returns the sorted canonical names of the families
// with an Implicit builder — the ones a sharded run accepts.
func implicitFamilies() []string {
	var names []string
	for _, f := range Families() {
		if f.Implicit != nil {
			names = append(names, f.Name)
		}
	}
	return names
}

// FamilyNames returns the sorted canonical names, for usage strings.
func FamilyNames() []string {
	fams := Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// Usage renders a multi-line catalogue of families for CLI help output.
func Usage() string {
	var b strings.Builder
	for _, f := range Families() {
		fmt.Fprintf(&b, "  %-15s %s", f.Name, f.Brief)
		if f.Params != "" {
			fmt.Fprintf(&b, " (params: %s)", f.Params)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// inRange fails a spec whose integer parameter lies outside [lo, hi]: the
// generators panic there, and a spec must fail with an error instead.
func inRange(param string, got, lo, hi int) error {
	switch {
	case got >= lo && got <= hi:
		return nil
	case hi == math.MaxInt:
		return fmt.Errorf("%s = %d, want >= %d", param, got, lo)
	default:
		return fmt.Errorf("%s = %d, want it in [%d,%d]", param, got, lo, hi)
	}
}

// sideSplit fills N1/N2 from N (and vice versa) for two-sided families.
func sideSplit(gs *GraphSpec) {
	if gs.N1 == 0 {
		gs.N1 = gs.N / 2
	}
	if gs.N2 == 0 {
		gs.N2 = gs.N - gs.N/2
	}
	if gs.N == 0 {
		gs.N = gs.N1 + gs.N2
	}
}

func init() {
	register(Family{
		Name: "dumbbell", Brief: "two cliques joined by a sparse cut (the paper's G')",
		Params: "n (or n1,n2), cut", Partitioned: true,
		Defaults: func(gs *GraphSpec) {
			sideSplit(gs)
			if gs.Cut == 0 {
				gs.Cut = 1
			}
		},
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			return graph.Dumbbell(gs.N1, gs.N2, gs.Cut)
		},
		Implicit: func(gs GraphSpec) (*graph.Implicit, error) {
			return graph.ImplicitDumbbell(gs.N1, gs.N2, gs.Cut)
		},
	})
	register(Family{
		Name: "torusdumbbell", Brief: "two 4-regular tori joined by a sparse cut (the dumbbell at constant degree)",
		Params: "n, cut", Partitioned: true,
		Defaults: func(gs *GraphSpec) {
			if gs.Cut == 0 {
				gs.Cut = 1
			}
		},
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			return graph.TorusDumbbell(gs.N, gs.Cut)
		},
	})
	register(Family{
		Name: "planted", Aliases: []string{"planted-partition", "sbm"},
		Brief:  "two-community random graph with a sparse planted cut",
		Params: "n (or n1,n2), p_in, p_out", Partitioned: true, Random: true,
		Defaults: func(gs *GraphSpec) {
			sideSplit(gs)
			if gs.PIn == 0 {
				gs.PIn = 0.5
			}
			if gs.POut == 0 {
				// ~3 expected cut edges, matching the former gossipsim default.
				gs.POut = 3.0 / float64(gs.N1*gs.N2)
			}
		},
		Build: func(gs GraphSpec, r *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			return graph.PlantedPartition(r, gs.N1, gs.N2, gs.PIn, gs.POut, 500)
		},
	})
	register(Family{
		Name: "sensor", Aliases: []string{"walled-rgg", "sensorfield"},
		Brief:  "walled random geometric graph with door edges",
		Params: "n, cut (doors), radius", Partitioned: true, Random: true,
		Defaults: func(gs *GraphSpec) {
			if gs.Cut == 0 {
				gs.Cut = 1
			}
			if gs.Radius == 0 {
				gs.Radius = 2
			}
		},
		Build: func(gs GraphSpec, r *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			if err := inRange("n", gs.N, 0, math.MaxInt); err != nil {
				return nil, nil, err
			}
			if !(gs.Radius >= 0) {
				return nil, nil, fmt.Errorf("radius = %v, want >= 0", gs.Radius)
			}
			return graph.WalledRGG(r, gs.N, gs.Radius*graph.ConnectivityRadius(gs.N), gs.Cut, 500)
		},
	})
	register(Family{
		Name: "ringofcliques", Aliases: []string{"ring-of-cliques", "roc"},
		Brief:  "cycle of cliques, adjacent pairs joined by sparse bridges",
		Params: "n (or blocks), cut (bridges)", Partitioned: true,
		Defaults: func(gs *GraphSpec) {
			if gs.Blocks == 0 {
				gs.Blocks = 4
			}
			if gs.N == 0 {
				gs.N = 4 * gs.Blocks
			}
			if gs.Cut == 0 {
				gs.Cut = 1
			}
		},
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			m := gs.N / gs.Blocks
			if m < 1 {
				return nil, nil, fmt.Errorf("scenario: ringofcliques n=%d too small for %d blocks", gs.N, gs.Blocks)
			}
			return graph.RingOfCliques(gs.Blocks, m, gs.Cut)
		},
		Implicit: func(gs GraphSpec) (*graph.Implicit, error) {
			m := gs.N / gs.Blocks
			if m < 1 {
				return nil, fmt.Errorf("scenario: ringofcliques n=%d too small for %d blocks", gs.N, gs.Blocks)
			}
			return graph.ImplicitRingOfCliques(gs.Blocks, m, gs.Cut)
		},
	})
	register(Family{
		Name: "complete", Aliases: []string{"clique"}, Brief: "complete graph K_n", Params: "n",
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			if err := inRange("n", gs.N, 1, math.MaxInt); err != nil {
				return nil, nil, err
			}
			return graph.Complete(gs.N), nil, nil
		},
	})
	register(Family{
		Name: "path", Brief: "path graph P_n", Params: "n",
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			if err := inRange("n", gs.N, 1, math.MaxInt); err != nil {
				return nil, nil, err
			}
			return graph.Path(gs.N), nil, nil
		},
	})
	register(Family{
		Name: "cycle", Aliases: []string{"ring"}, Brief: "cycle C_n", Params: "n",
		Build: func(gs GraphSpec, _ *rng.RNG) (*graph.Graph, *graph.Partition, error) {
			if err := inRange("n", gs.N, 3, math.MaxInt); err != nil {
				return nil, nil, err
			}
			return graph.Cycle(gs.N), nil, nil
		},
	})
}
