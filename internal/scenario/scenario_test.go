package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparsecut/internal/core"
	"sparsecut/internal/cut"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/spectral"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRegistryCoversZoo checks the registry holds exactly the families a
// workload runs, each reachable by name, including the legacy CLI
// spellings.
func TestRegistryCoversZoo(t *testing.T) {
	want := []string{
		"dumbbell", "torusdumbbell", "planted", "sensor", "ringofcliques",
		"complete", "path", "cycle",
	}
	if len(FamilyNames()) != len(want) {
		t.Errorf("registry has %d families %v, want %d", len(FamilyNames()), FamilyNames(), len(want))
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("family %q not registered", name)
		}
	}
	// Aliases and case-insensitivity.
	for _, alias := range []string{"ring-of-cliques", "SBM", "walled-rgg", "Clique", "RING"} {
		if _, ok := Lookup(alias); !ok {
			t.Errorf("alias %q not resolvable", alias)
		}
	}
}

// TestResolveEveryFamily resolves a small spec for each family and sanity
// checks the outputs. Every family resolves at N = 16 except the torus
// dumbbell, whose two halves must each factor into a torus of at least
// 3x3.
func TestResolveEveryFamily(t *testing.T) {
	sizes := map[string]int{"torusdumbbell": 18}
	for _, f := range Families() {
		f := f
		n := sizes[f.Name]
		if n == 0 {
			n = 16
		}
		t.Run(f.Name, func(t *testing.T) {
			r, err := Spec{Graph: GraphSpec{Family: f.Name, N: n}, Seed: 7}.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if r.Graph.NumNodes() < 2 {
				t.Fatalf("graph too small: %d nodes", r.Graph.NumNodes())
			}
			if len(r.X0) != r.Graph.NumNodes() {
				t.Fatalf("x0 length %d for %d nodes", len(r.X0), r.Graph.NumNodes())
			}
			if f.Partitioned && r.Partition == nil {
				t.Error("partitioned family resolved without partition")
			}
			if r.Spec.Graph.N != r.Graph.NumNodes() {
				t.Errorf("normalized N=%d but graph has %d nodes", r.Spec.Graph.N, r.Graph.NumNodes())
			}
			alg, err := r.NewAlgorithm(nil)
			if err != nil {
				t.Fatalf("building default algorithm: %v", err)
			}
			if alg.Variance() < 0 {
				t.Error("negative initial variance")
			}
		})
	}
}

// TestResolveDeterministic: the same spec resolves to the identical graph
// and initial vector, even for random families.
func TestResolveDeterministic(t *testing.T) {
	spec := Spec{
		Graph: GraphSpec{Family: "planted", N: 20},
		Algo:  AlgoSpec{Name: "A"},
		Init:  "random",
		Rates: "random",
		Seed:  42,
	}
	a, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	for i, e := range a.Graph.Edges() {
		if b.Graph.Edge(graph.EdgeID(i)) != e {
			t.Fatalf("edge %d differs", i)
		}
	}
	for i := range a.X0 {
		if a.X0[i] != b.X0[i] {
			t.Fatalf("x0[%d] differs: %v vs %v", i, a.X0[i], b.X0[i])
		}
	}
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("rates[%d] differs", i)
		}
	}
}

// TestAlgorithmVariants exercises the algorithm spec knobs.
func TestAlgorithmVariants(t *testing.T) {
	base := GraphSpec{Family: "dumbbell", N: 12, Cut: 1}
	cases := []AlgoSpec{
		{Name: "vanilla"},
		{Name: "convex", Alpha: 0.75},
		{Name: "pushsum"},
		{Name: "A"},
		{Name: "A", Weight: "paper"},
		{Name: "A", Weight: "custom", W: 5},
		{Name: "A", EpochC: 2},
		{Name: "A", EpochTicks: 3},
	}
	for _, a := range cases {
		r, err := Spec{Graph: base, Algo: a, Seed: 3}.Resolve()
		if err != nil {
			t.Fatalf("%+v: resolve: %v", a, err)
		}
		alg, err := r.NewAlgorithm(rng.New(1))
		if err != nil {
			t.Fatalf("%+v: build: %v", a, err)
		}
		if alg.Name() == "" {
			t.Errorf("%+v: empty algorithm name", a)
		}
	}
	// Unknown spellings are rejected.
	for _, bad := range []Spec{
		{Graph: base, Algo: AlgoSpec{Name: "magic"}},
		{Graph: base, Algo: AlgoSpec{Name: "A", Weight: "heavy"}},
		{Graph: GraphSpec{Family: "nosuch"}},
		{Graph: base, Init: "nosuch"},
		{Graph: base, Rates: "nosuch"},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("%+v: expected resolve error", bad)
		}
	}
}

// TestSpecJSONRoundTrip: marshalling a normalized spec and parsing it back
// yields the same normalized spec, and the serialized form matches the
// checked-in golden file (the schema contract for sweep reports).
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Graph: GraphSpec{Family: "dumbbell", N: 64, Cut: 2}, Algo: AlgoSpec{Name: "A", EpochC: 1.5}, Seed: 9},
		{Graph: GraphSpec{Family: "sensor", N: 40, Cut: 3}, Algo: AlgoSpec{Name: "convex", Alpha: 0.8}, Init: "random", Rates: "nodeclock", Stop: StopSpec{Trials: 3, MaxTime: 500}},
		{Graph: GraphSpec{Family: "ringofcliques", Blocks: 5, N: 20}, Algo: AlgoSpec{Name: "vanilla"}},
		{Graph: GraphSpec{Family: "planted", N1: 10, N2: 14, PIn: 0.6}, Algo: AlgoSpec{Name: "A", Weight: "paper"}},
	}
	var normalized []Spec
	for _, s := range specs {
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		normalized = append(normalized, r.Spec)
	}
	got, err := json.MarshalIndent(normalized, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "specs_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch (re-run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Parse the golden bytes back and re-normalize: must be a fixed point.
	var back []Spec
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	for i, s := range back {
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec != normalized[i] {
			t.Errorf("spec %d not a round-trip fixed point:\n got %+v\nwant %+v", i, r.Spec, normalized[i])
		}
	}
}

func TestLabel(t *testing.T) {
	s := Spec{Graph: GraphSpec{Family: "dumbbell", N: 64, Cut: 2}, Algo: AlgoSpec{Name: "A", EpochC: 2}}
	if got := s.Label(); got != "dumbbell/n=64/cut=2/A/C=2" {
		t.Errorf("label = %q", got)
	}
}

// TestAllCutEdgesSpec covers the multi-cut-edge extension flag: JSON
// round-trip, label marking, and that the resolved Algorithm A actually
// carries the scaled epoch (K differs from the single-edge default once
// |E12| > 1).
func TestAllCutEdgesSpec(t *testing.T) {
	spec := Spec{
		Graph: GraphSpec{Family: "dumbbell", N: 16, Cut: 4},
		Algo:  AlgoSpec{Name: "A", AllCutEdges: true},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"all_cut_edges":true`) {
		t.Errorf("JSON missing all_cut_edges: %s", data)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Algo.AllCutEdges {
		t.Error("round-trip lost AllCutEdges")
	}
	if !strings.Contains(spec.Label(), "/allcut") {
		t.Errorf("label %q missing /allcut marker", spec.Label())
	}

	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	allAlg, err := r.NewAlgorithm(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	single := spec
	single.Algo.AllCutEdges = false
	rs, err := single.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	singleAlg, err := rs.NewAlgorithm(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	allK := allAlg.(*core.SparseCutAveraging).EpochTicks()
	singleK := singleAlg.(*core.SparseCutAveraging).EpochTicks()
	if allK <= singleK {
		t.Errorf("all-cut-edges K=%d not scaled above single-edge K=%d", allK, singleK)
	}
}

// TestSideTvanComputedOncePerResolved checks that Algorithm A's default
// per-side Tvan bounds are derived once per Resolved and shared by every
// trial, and that each trial's swap period matches a bare core.New on the
// same graph and partition.
func TestSideTvanComputedOncePerResolved(t *testing.T) {
	base := GraphSpec{Family: "ringofcliques", N: 24, Cut: 2}
	for _, a := range []AlgoSpec{
		{Name: "A"},
		{Name: "A", EpochC: 2},
		{Name: "A", AllCutEdges: true},
	} {
		r, err := Spec{Graph: base, Algo: a, Seed: 5}.Resolve()
		if err != nil {
			t.Fatalf("%+v: resolve: %v", a, err)
		}
		opts := []core.Option{core.WithPartition(r.Partition)}
		if a.EpochC != 0 {
			opts = append(opts, core.WithEpochConstant(a.EpochC))
		}
		if a.AllCutEdges {
			opts = append(opts, core.WithAllCutEdges())
		}
		bare, err := core.New(r.Graph, r.X0, opts...)
		if err != nil {
			t.Fatalf("%+v: bare core.New: %v", a, err)
		}
		wantK := bare.EpochTicks()
		want1, want2, err := core.SideTvanBounds(r.Partition, spectral.Options{})
		if err != nil || want1 <= 0 || want2 <= 0 {
			t.Fatalf("%+v: degenerate side bounds (%v, %v): %v", a, want1, want2, err)
		}
		// The swap period a trial must get from bounds planted in the cache.
		planted, err := core.New(r.Graph, r.X0, append(opts, core.WithTvan(2*want1, want2))...)
		if err != nil {
			t.Fatalf("%+v: core.New with planted bounds: %v", a, err)
		}
		if planted.EpochTicks() == wantK {
			t.Fatalf("%+v: doubling Tvan1 leaves K=%d, so the cache check below cannot tell", a, wantK)
		}
		trial := func() *core.SparseCutAveraging {
			t.Helper()
			alg, err := r.NewAlgorithm(rng.New(1))
			if err != nil {
				t.Fatalf("%+v: trial: %v", a, err)
			}
			return alg.(*core.SparseCutAveraging)
		}
		for i := 0; i < 3; i++ {
			if k := trial().EpochTicks(); k != wantK {
				t.Errorf("%+v trial %d: K=%d, want %d", a, i, k, wantK)
			}
		}
		// A later trial reads the cached bounds rather than recomputing
		// them: a value planted in the cache sizes its epoch.
		r.side.tv1 = 2 * want1
		if k := trial().EpochTicks(); k != planted.EpochTicks() {
			t.Errorf("%+v: trial K=%d, want %d from the cached Tvan1 = %v", a, k, planted.EpochTicks(), 2*want1)
		}
	}

	// With the swap period fixed the bounds are never needed.
	r, err := Spec{Graph: base, Algo: AlgoSpec{Name: "A", EpochTicks: 3}, Seed: 5}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewAlgorithm(rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if r.side.tv1 != 0 || r.side.tv2 != 0 || r.side.err != nil {
		t.Errorf("fixed-period A computed side bounds: (%v, %v, %v)", r.side.tv1, r.side.tv2, r.side.err)
	}
}

// Out-of-range family parameters must fail Resolve with an error: the
// graph generators panic on them, and these specs reach Resolve from
// user input (gossipsim -graph, sweep -spec).
func TestResolveRejectsOutOfRangeParams(t *testing.T) {
	for _, c := range []struct {
		name string
		gs   GraphSpec
	}{
		{"cycle n=2", GraphSpec{Family: "cycle", N: 2}},
		{"complete n=-1", GraphSpec{Family: "complete", N: -1}},
		{"path n=-1", GraphSpec{Family: "path", N: -1}},
		{"sensor n=-1", GraphSpec{Family: "sensor", N: -1}},
		{"sensor radius=-1", GraphSpec{Family: "sensor", N: 16, Radius: -1}},
		{"planted p_in=2", GraphSpec{Family: "planted", N: 16, PIn: 2}},
		{"dumbbell n1=-1", GraphSpec{Family: "dumbbell", N1: -1, N2: 4}},
		{"torusdumbbell n=10", GraphSpec{Family: "torusdumbbell", N: 10}},
		{"ringofcliques n=2", GraphSpec{Family: "ringofcliques", N: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Resolve panicked: %v", r)
				}
			}()
			if _, err := (Spec{Graph: c.gs}).Resolve(); err == nil {
				t.Error("Resolve accepted the spec")
			}
		})
	}
}

// The torusdumbbell family builds graph.TorusDumbbell's graph and
// partition, with the cut indicator as its worst-case x0, bit for bit.
func TestTorusDumbbellFamilyMatchesGenerator(t *testing.T) {
	for _, c := range []struct{ n, cut int }{{100000, 8}, {18, 1}} {
		spec := Spec{Graph: GraphSpec{Family: "torusdumbbell", N: c.n}}
		if c.cut != 1 {
			spec.Graph.Cut = c.cut // cut 1 is the family default
		}
		r, err := spec.Resolve()
		if err != nil {
			t.Fatalf("n=%d cut=%d: %v", c.n, c.cut, err)
		}
		g, part, err := graph.TorusDumbbell(c.n, c.cut)
		if err != nil {
			t.Fatal(err)
		}
		if r.Graph.String() != g.String() || r.Graph.NumEdges() != g.NumEdges() {
			t.Fatalf("n=%d cut=%d: built %s, want %s", c.n, c.cut, r.Graph, g)
		}
		for i, e := range g.Edges() {
			if r.Graph.Edge(graph.EdgeID(i)) != e {
				t.Fatalf("n=%d cut=%d: edge %d is %v, want %v", c.n, c.cut, i, r.Graph.Edge(graph.EdgeID(i)), e)
			}
		}
		for v := 0; v < c.n; v++ {
			if r.Partition.SideOf(graph.NodeID(v)) != part.SideOf(graph.NodeID(v)) {
				t.Fatalf("n=%d cut=%d: node %d on another side", c.n, c.cut, v)
			}
		}
		x0 := gossip.CutIndicator(part)
		for i := range x0 {
			if math.Float64bits(r.X0[i]) != math.Float64bits(x0[i]) {
				t.Fatalf("n=%d cut=%d: x0[%d] = %v, want %v", c.n, c.cut, i, r.X0[i], x0[i])
			}
		}
	}
}

// SwapParams hands the live runtimes the designated cut edge, the fixed
// swap period and the weight AlgoSpec.Weight names, and refuses what has
// no live rule.
func TestSwapParams(t *testing.T) {
	dumbbell := GraphSpec{Family: "dumbbell", N: 12, Cut: 2}
	for _, c := range []struct {
		algo AlgoSpec
		want func(*graph.Partition) float64
	}{
		{AlgoSpec{Name: "A", EpochTicks: 4}, core.ExactWeight},
		{AlgoSpec{Name: "A", EpochTicks: 3, Weight: "paper"}, core.PaperWeight},
		{AlgoSpec{Name: "A", EpochTicks: 2, Weight: "custom", W: 2.5}, func(*graph.Partition) float64 { return 2.5 }},
	} {
		r, err := Spec{Graph: dumbbell, Algo: c.algo}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		ec, k, w, err := r.SwapParams()
		if err != nil {
			t.Fatalf("%+v: %v", c.algo, err)
		}
		wantEC, err := cut.DesignatedCutEdge(r.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if ec != wantEC || k != c.algo.EpochTicks || w != c.want(r.Partition) {
			t.Errorf("%+v: (ec, K, w) = (%d, %d, %v), want (%d, %d, %v)",
				c.algo, ec, k, w, wantEC, c.algo.EpochTicks, c.want(r.Partition))
		}
	}

	r, err := Spec{Graph: dumbbell, Algo: AlgoSpec{Name: "vanilla"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if ec, k, w, err := r.SwapParams(); err != nil || ec != 0 || k != 0 || w != 0 {
		t.Errorf("vanilla: (%d, %d, %v, %v), want zeros", ec, k, w, err)
	}

	for _, bad := range []Spec{
		{Graph: GraphSpec{Family: "cycle", N: 16}, Algo: AlgoSpec{Name: "A", EpochTicks: 4}},
		{Graph: dumbbell, Algo: AlgoSpec{Name: "convex"}},
		{Graph: dumbbell, Algo: AlgoSpec{Name: "pushsum"}},
	} {
		bad.Init = "spike"
		r, err := bad.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := r.SwapParams(); err == nil {
			t.Errorf("%s/%s: SwapParams accepted it", bad.Graph.Family, bad.Algo.Name)
		}
	}
}

// FuzzGraphFlags feeds arbitrary argv (the fuzz bytes split on NUL)
// through GraphFlags, fs.Parse and Resolve, the path of every
// single-graph CLI's graph flags (gossipsim, graphgen, distrun, mcheck):
// each input fails with an error or resolves to a graph whose node count
// matches x0. Shape values are bounded here so valid graphs stay small;
// the program itself caps none of them. The seeds are the graph flags of
// every gossipsim, distrun and mcheck step in CI.
func FuzzGraphFlags(f *testing.F) {
	for _, argv := range []string{
		"-graph dumbbell",
		"-n 1e5",
		"-n 3e5",
		"-graph torusdumbbell -n 100000 -cut 8",
		"-graph planted -n 60",
		"-graph sensor -n 64 -cut 2",
		"-graph dumbbell -n 12",
		"-graph dumbbell -n 16",
		"-graph torusdumbbell -n 18",
		"-graph planted -n 16",
		"-graph sensor -n 16",
		"-graph ringofcliques -n 16",
		"-graph complete -n 16",
		"-graph path -n 16",
		"-graph cycle -n 16",
		"-graph complete -n 3",
		"-graph path -n 4",
		"-graph ring -n 5",
		"-graph dumbbell -n 6",
	} {
		f.Add([]byte(strings.ReplaceAll(argv, " ", "\x00")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		gs := GraphFlags(fs, "dumbbell", 64)
		seed := fs.Uint64("seed", 1, "random seed")
		if err := fs.Parse(strings.Split(string(data), "\x00")); err != nil {
			return
		}
		for _, v := range []int{gs.N, gs.N1, gs.N2, gs.Cut, gs.Blocks} {
			if v < -64 || v > 64 {
				return
			}
		}
		r, err := Spec{Graph: *gs, Seed: *seed}.Resolve()
		if err != nil {
			return
		}
		if n := r.NumNodes(); n != len(r.X0) {
			t.Fatalf("%s: %d nodes, %d initial values", r.Spec.Label(), n, len(r.X0))
		}
	})
}
