package sweep

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"sparsecut/internal/metrics"
	"sparsecut/internal/scenario"
)

// TestDeterministicAcrossWorkers is the subsystem's core contract: the
// same grid and seed produce byte-identical JSON for workers=1 and
// workers=4, including random graph families, on any GOMAXPROCS.
func TestDeterministicAcrossWorkers(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{
			Stop: scenario.StopSpec{Trials: 2, MaxTime: 200},
		},
		Families: []string{"dumbbell", "planted"},
		Ns:       []int{12, 16},
		Algos:    []string{"vanilla", "A"},
	}
	var out1, out4 bytes.Buffer
	rep1, err := Run(grid, Config{Workers: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := Run(grid, Config{Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep1.WriteJSON(&out1); err != nil {
		t.Fatal(err)
	}
	if err := rep4.WriteJSON(&out4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out4.Bytes()) {
		t.Fatalf("workers=1 and workers=4 reports differ:\n--- w=1 ---\n%s\n--- w=4 ---\n%s", out1.String(), out4.String())
	}
	for _, c := range rep1.Cells {
		if c.Error != "" {
			t.Errorf("cell %s failed: %s", c.Label, c.Error)
		}
		if c.Trials != 2 {
			t.Errorf("cell %s ran %d trials, want 2", c.Label, c.Trials)
		}
	}
}

// TestExpandOrderAndSeeds pins the expansion order (families outermost,
// algos inner) and the seed-per-unit scheme.
func TestExpandOrderAndSeeds(t *testing.T) {
	grid := Grid{
		Base:     scenario.Spec{Graph: scenario.GraphSpec{Cut: 1}},
		Families: []string{"dumbbell", "ringofcliques"},
		Ns:       []int{16, 32},
		Algos:    []string{"vanilla", "A"},
	}
	units, err := Expand(grid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 8 {
		t.Fatalf("expanded %d units, want 8", len(units))
	}
	wantOrder := []struct {
		family string
		n      int
		algo   string
	}{
		{"dumbbell", 16, "vanilla"}, {"dumbbell", 16, "A"},
		{"dumbbell", 32, "vanilla"}, {"dumbbell", 32, "A"},
		{"ringofcliques", 16, "vanilla"}, {"ringofcliques", 16, "A"},
		{"ringofcliques", 32, "vanilla"}, {"ringofcliques", 32, "A"},
	}
	seeds := map[uint64]bool{}
	for i, u := range units {
		w := wantOrder[i]
		if u.Spec.Graph.Family != w.family || u.Spec.Graph.N != w.n || u.Spec.Algo.Name != w.algo {
			t.Errorf("unit %d = %s/%d/%s, want %s/%d/%s", i,
				u.Spec.Graph.Family, u.Spec.Graph.N, u.Spec.Algo.Name, w.family, w.n, w.algo)
		}
		if u.Spec.Seed == 0 {
			t.Errorf("unit %d has zero seed", i)
		}
		if seeds[u.Spec.Seed] {
			t.Errorf("unit %d reuses seed %d", i, u.Spec.Seed)
		}
		seeds[u.Spec.Seed] = true
		if want := unitSeed(5, i); u.Spec.Seed != want {
			t.Errorf("unit %d seed %d, want unitSeed(5,%d)=%d", i, u.Spec.Seed, i, want)
		}
	}
	// Unknown axis values fail at expansion, before any simulation.
	if _, err := Expand(Grid{Families: []string{"nosuch"}}, 1); err == nil {
		t.Error("expected error for unknown family axis value")
	}
}

// TestNsAxisClearsDerivedShape: sweeping n must re-derive side splits
// rather than inheriting the base spec's.
func TestNsAxisClearsDerivedShape(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{Graph: scenario.GraphSpec{Family: "dumbbell", N1: 8, N2: 8, Cut: 1}},
		Ns:   []int{24},
	}
	units, err := Expand(grid, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := units[0].Spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.NumNodes() != 24 {
		t.Fatalf("graph has %d nodes, want 24 (stale side split?)", r.Graph.NumNodes())
	}
}

// TestE4HeadlineSeparation reproduces the paper's headline claim from a
// scenario grid: on the symmetric dumbbell, Algorithm A beats every
// convex baseline, and the gap widens with n (convex Ω(n) vs A polylog).
func TestE4HeadlineSeparation(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{
			Graph: scenario.GraphSpec{Family: "dumbbell", Cut: 1},
			Stop:  scenario.StopSpec{Trials: 3},
		},
		Ns:    []int{32, 64},
		Algos: []string{"vanilla", "A"},
	}
	rep, err := Run(grid, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tav := map[string]float64{}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s failed: %s", c.Label, c.Error)
		}
		tav[c.Label] = c.Tav
	}
	speedup32 := tav["dumbbell/n=32/cut=1/vanilla"] / tav["dumbbell/n=32/cut=1/A"]
	speedup64 := tav["dumbbell/n=64/cut=1/vanilla"] / tav["dumbbell/n=64/cut=1/A"]
	if speedup32 <= 1 {
		t.Errorf("n=32: A should beat vanilla, speedup = %v", speedup32)
	}
	if speedup64 <= 1 {
		t.Errorf("n=64: A should beat vanilla, speedup = %v", speedup64)
	}
	if speedup64 <= speedup32 {
		t.Errorf("separation should widen with n: speedup(32)=%v, speedup(64)=%v", speedup32, speedup64)
	}
}

// TestReportRoundTrip: WriteJSON is lossless, and the text table has one
// row per cell.
func TestReportRoundTrip(t *testing.T) {
	grid := Grid{
		Base:  scenario.Spec{Graph: scenario.GraphSpec{Family: "complete", N: 8}, Stop: scenario.StopSpec{Trials: 2}},
		Algos: []string{"vanilla"},
	}
	rep, err := Run(grid, Config{Workers: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(rep.Cells) || back.Seed != rep.Seed {
		t.Fatal("round-trip lost cells or seed")
	}
	if back.Cells[0] != rep.Cells[0] {
		t.Fatalf("cell changed in round trip:\n got %+v\nwant %+v", back.Cells[0], rep.Cells[0])
	}
	var out bytes.Buffer
	if err := rep.Table("t").Render(&out); err != nil {
		t.Fatal(err)
	}
	// Title, header and separator lines, then one line per cell.
	if lines := strings.Count(out.String(), "\n"); lines != 3+len(rep.Cells) {
		t.Errorf("table has %d lines for %d cells:\n%s", lines, len(rep.Cells), out.String())
	}
}

// TestDecodersRejectTrailingData: ParseGrid decodes one value and fails
// on anything after it but whitespace, with or without a base spec.
func TestDecodersRejectTrailingData(t *testing.T) {
	for _, in := range []string{"{\"ns\":[16]}\n", "{\"base\":{\"graph\":{\"family\":\"dumbbell\",\"n\":16}}}\n\t "} {
		if _, err := ParseGrid(strings.NewReader(in)); err != nil {
			t.Fatalf("grid with trailing whitespace %q: %v", in, err)
		}
	}
	for _, in := range []string{
		`{"ns":[16]} garbage`,
		`{"ns":[16]} {"ns":[32]}`,
		`{"ns":[16]}]`,
		`{"base":{"graph":{"family":"dumbbell","n":16}}} {"base":{"graph":{"family":"cycle"}}}`,
	} {
		if _, err := ParseGrid(strings.NewReader(in)); err == nil {
			t.Errorf("ParseGrid(%s): expected error", in)
		}
	}
}

// TestParseGridRejectsUnknownSpecFields: ParseGrid fails on an unknown
// field in its base spec. Among them are the fields of removed graph
// families and the removed batch width, so an old spec file cannot
// silently lose one.
func TestParseGridRejectsUnknownSpecFields(t *testing.T) {
	for _, in := range []string{
		`{"base":{"graph":{"family":"dumbbell","nodes":64}}}`,
		`{"base":{"graph":{"family":"dumbbell","inner_cut":2}}}`,
		`{"base":{"graph":{"family":"dumbbell","rows":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","cols":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","dim":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","levels":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","tail":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","degree":4}}}`,
		`{"base":{"graph":{"family":"dumbbell","p":0.5}}}`,
		`{"base":{"stop":{"batch_width":2}}}`,
	} {
		if _, err := ParseGrid(strings.NewReader(in)); err == nil {
			t.Errorf("ParseGrid(%s): expected error", in)
		}
	}
}

// TestCellErrorIsolated: a failing cell doesn't abort the sweep.
func TestCellErrorIsolated(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{Stop: scenario.StopSpec{Trials: 1, MaxTime: 50}},
		// cycle needs n >= 3: the n=2 cell fails, n=16 succeeds.
		Families: []string{"cycle"},
		Ns:       []int{2, 16},
	}
	rep, err := Run(grid, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0].Error == "" {
		t.Error("n=2 cell should have failed")
	}
	if rep.Cells[1].Error != "" {
		t.Errorf("n=16 cell failed: %s", rep.Cells[1].Error)
	}
}

// TestRatesAxis covers the clock-rate-model axis (E13's sweep dimension):
// expansion order, per-unit planting, and end-to-end cells.
func TestRatesAxis(t *testing.T) {
	grid := Grid{
		Base:  scenario.Spec{Stop: scenario.StopSpec{Trials: 1, MaxTime: 100}},
		Ns:    []int{12},
		Algos: []string{"vanilla"},
		Rates: []string{"uniform", "nodeclock", "random"},
	}
	units, err := Expand(grid, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("expanded %d units, want 3", len(units))
	}
	for i, want := range []string{"uniform", "nodeclock", "random"} {
		if got := units[i].Spec.Rates; got != want {
			t.Errorf("unit %d rates %q, want %q", i, got, want)
		}
	}
	rep, err := Run(grid, Config{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Error != "" {
			t.Errorf("cell %s: %s", c.Label, c.Error)
		}
		if c.Tav <= 0 {
			t.Errorf("cell %s (rates=%s): Tav %v", c.Label, c.Spec.Rates, c.Tav)
		}
	}
}

// TestMetricsObservationOnly: a sweep with Config.Metrics set must (a)
// produce a byte-identical report to the uninstrumented run, and (b)
// account for every cell exactly once in the started/completed counters
// and the wall-time histogram, with errored counting only failed cells.
func TestMetricsObservationOnly(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{
			Stop: scenario.StopSpec{Trials: 2, MaxTime: 200},
		},
		Families: []string{"dumbbell", "planted"},
		Ns:       []int{12, 16},
		Algos:    []string{"vanilla", "A"},
	}
	plain, err := Run(grid, Config{Workers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	instr, err := Run(grid, Config{Workers: 4, Seed: 11, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := instr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("instrumented sweep report differs from uninstrumented")
	}

	snap := reg.Snapshot()
	want := int64(len(instr.Cells))
	if got := snap.Counters["sweep.cells.started"]; got != want {
		t.Errorf("started %d, want %d", got, want)
	}
	if got := snap.Counters["sweep.cells.completed"]; got != want {
		t.Errorf("completed %d, want %d", got, want)
	}
	if got := snap.Counters["sweep.cells.errored"]; got != 0 {
		t.Errorf("errored %d on an all-green sweep", got)
	}
	h := snap.Histograms["sweep.cell.wall_ns"]
	if h.Count != want {
		t.Errorf("wall histogram has %d samples, want %d", h.Count, want)
	}
	if h.Sum <= 0 {
		t.Error("wall histogram sum not positive")
	}
}

// A failing cell increments errored but still completes.
func TestMetricsCountsErroredCells(t *testing.T) {
	grid := Grid{
		Base: scenario.Spec{
			Stop: scenario.StopSpec{Trials: 1, MaxTime: 50},
		},
		// cycle needs n >= 3: the n=2 cell fails, n=16 succeeds (same
		// fixture as TestCellErrorIsolated).
		Families: []string{"cycle"},
		Ns:       []int{2, 16},
	}
	reg := metrics.NewRegistry()
	rep, err := Run(grid, Config{Workers: 2, Seed: 7, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var failed int64
	for _, c := range rep.Cells {
		if c.Error != "" {
			failed++
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep.cells.errored"]; got != failed {
		t.Errorf("errored counter %d, want %d", got, failed)
	}
	if got := snap.Counters["sweep.cells.completed"]; got != int64(len(rep.Cells)) {
		t.Errorf("completed counter %d, want %d", got, len(rep.Cells))
	}
}

// reportJSON renders a report for byte comparison.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sharedRuns runs every grid concurrently with one Cache and returns how
// many cells took their estimate from it. Each report must be
// byte-identical to the same run without the cache.
func sharedRuns(t *testing.T, seeds []uint64, grids ...Grid) int64 {
	t.Helper()
	cache := &Cache{}
	reg := metrics.NewRegistry()
	got := make([]*Report, len(grids))
	errs := make([]error, len(grids))
	done := make(chan struct{})
	for i, g := range grids {
		go func() {
			defer func() { done <- struct{}{} }()
			got[i], errs[i] = Run(g, Config{Workers: 2, Seed: seeds[i], Cache: cache, Metrics: reg})
		}()
	}
	for range grids {
		<-done
	}
	for i, g := range grids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := Run(g, Config{Workers: 1, Seed: seeds[i]})
		if err != nil {
			t.Fatal(err)
		}
		if reportJSON(t, got[i]) != reportJSON(t, want) {
			t.Errorf("grid %d: report with a shared cache differs from one without", i)
		}
		for _, c := range got[i].Cells {
			if c.Error != "" {
				t.Errorf("grid %d: cell %s failed: %s", i, c.Label, c.Error)
			}
		}
	}
	return reg.Snapshot().Counters["sweep.cells.shared"]
}

// TestCacheSharesEqualCells: two sweeps over overlapping grids estimate
// each common cell once, convex(1/2) and vanilla share, and a different
// seed, rate model or shard count does not.
func TestCacheSharesEqualCells(t *testing.T) {
	base := scenario.Spec{Stop: scenario.StopSpec{Trials: 2, MaxTime: 200}}
	withRates := func(s scenario.Spec, rates string) scenario.Spec { s.Rates = rates; return s }
	withShards := func(s scenario.Spec, shards int) scenario.Spec { s.Stop.Shards = shards; return s }
	convexHalf := Grid{Base: base, Ns: []int{12}, Algos: []string{"convex"}, Alphas: []float64{0.5}}
	vanilla := Grid{Base: base, Ns: []int{12}, Algos: []string{"vanilla"}}
	cases := []struct {
		name  string
		seeds []uint64
		grids []Grid
		want  int64
	}{
		// Units 0 and 1 (n=12, vanilla and A) are common; n=16 and n=20
		// are not.
		{"overlapping grids", []uint64{3, 3}, []Grid{
			{Base: base, Ns: []int{12, 16}, Algos: []string{"vanilla", "A"}},
			{Base: base, Ns: []int{12, 20}, Algos: []string{"vanilla", "A"}},
		}, 2},
		{"convex(1/2) and vanilla", []uint64{3, 3}, []Grid{convexHalf, vanilla}, 1},
		{"convex(0.75) and vanilla", []uint64{3, 3}, []Grid{
			{Base: base, Ns: []int{12}, Algos: []string{"convex"}, Alphas: []float64{0.75}}, vanilla,
		}, 0},
		{"different seeds", []uint64{3, 4}, []Grid{vanilla, vanilla}, 0},
		{"different rates", []uint64{3, 3}, []Grid{vanilla, {Base: withRates(base, "nodeclock"), Ns: []int{12}}}, 0},
		{"different shard counts", []uint64{3, 3}, []Grid{
			{Base: withShards(base, 1), Ns: []int{12}}, {Base: withShards(base, 2), Ns: []int{12}},
		}, 0},
	}
	for _, tc := range cases {
		if got := sharedRuns(t, tc.seeds, tc.grids...); got != tc.want {
			t.Errorf("%s: %d shared cells, want %d", tc.name, got, tc.want)
		}
	}
}

// A short grid file can name an enormous product: four 400-entry axes are
// 2.56·10^10 units, and eight 256-entry axes overflow int to 0. Expand
// must refuse both with an error instead of allocating (an out-of-memory
// crash no recover can catch) or looping for ever, and still expand a
// grid of exactly MaxUnits units.
func TestExpandRejectsHugeGrids(t *testing.T) {
	ints := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	floats := func(k int) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = float64(i+1) / float64(k)
		}
		return out
	}
	strs := func(s string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = s
		}
		return out
	}
	huge := Grid{Ns: ints(400), Cuts: ints(400), Alphas: floats(400), EpochCs: floats(400)}
	if _, err := Expand(huge, 1); err == nil {
		t.Error("four 400-entry axes expanded without error")
	}
	overflow := Grid{
		Families: strs("dumbbell", 256), Ns: ints(256), Cuts: ints(256), Algos: strs("A", 256),
		Alphas: floats(256), EpochCs: floats(256), Weights: strs("exact", 256), Rates: strs("uniform", 256),
	}
	if _, err := Expand(overflow, 1); err == nil {
		t.Error("eight 256-entry axes (2^64 units) expanded without error")
	}
	atCap := Grid{Ns: ints(256), Cuts: ints(MaxUnits / 256)}
	units, err := Expand(atCap, 1)
	if err != nil {
		t.Fatalf("grid of exactly %d units: %v", MaxUnits, err)
	}
	if len(units) != MaxUnits {
		t.Errorf("expanded %d units, want %d", len(units), MaxUnits)
	}
	atCap.Cuts = append(atCap.Cuts, 0)
	if _, err := Expand(atCap, 1); err == nil {
		t.Errorf("grid of %d units expanded without error", MaxUnits+256)
	}
}

// FuzzParseGrid feeds arbitrary bytes through ParseGrid, Expand and each
// unit's Resolve, the path a -spec file takes in cmd/sweep: every input
// fails with an error or expands to at most MaxUnits units in index order,
// each of which fails to resolve or resolves to a graph whose node count
// matches its x0, and none panics. Units with a shape field outside ±64
// are not resolved, so valid graphs stay small. The seed corpus in
// testdata/fuzz/FuzzParseGrid holds the CI smoke grid, a grid with every
// field set, and the 2.56·10^10-unit grid of four 400-entry axes.
func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		units, err := Expand(g, 1)
		if err != nil {
			return
		}
		if len(units) == 0 || len(units) > MaxUnits {
			t.Fatalf("expanded to %d units", len(units))
		}
		for i, u := range units {
			if u.Index != i {
				t.Fatalf("unit %d has index %d", i, u.Index)
			}
			gs := u.Spec.Graph
			if slices.ContainsFunc([]int{gs.N, gs.N1, gs.N2, gs.Cut, gs.Blocks}, func(v int) bool { return v < -64 || v > 64 }) {
				continue
			}
			r, err := u.Spec.Resolve()
			if err != nil {
				continue
			}
			if n := r.NumNodes(); n != len(r.X0) {
				t.Fatalf("unit %d (%s): %d nodes, %d initial values", i, u.Spec.Label(), n, len(r.X0))
			}
		}
	})
}
