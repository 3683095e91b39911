package report

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparsecut/internal/scenario"
	"sparsecut/internal/sim"
	"sparsecut/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRegistryComplete(t *testing.T) {
	all := Entries()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(all))
	}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
	}
	// Sorted numerically, not lexically (E10 after E9).
	if all[8].ID != "E9" || all[9].ID != "E10" {
		t.Errorf("ordering wrong: %s, %s", all[8].ID, all[9].ID)
	}
	if _, ok := ByID("E999"); ok {
		t.Error("bogus ID found")
	}
}

// quickSection runs one entry in quick mode and fails the test on any
// definitive FAIL — the same gate CI applies to the generated document.
func quickSection(t *testing.T, id string, seed uint64) Section {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	sec, err := e.RunEntry(Params{Quick: true, Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if sec.Verdicts.Fail > 0 {
		t.Errorf("%s: %d table rows FAIL", id, sec.Verdicts.Fail)
	}
	for _, name := range sec.FailedChecks() {
		t.Errorf("%s: check %q failed", id, name)
	}
	return sec
}

// TestSuitePassesQuick is the migrated claim suite: every experiment's
// bound checks and derived checks must pass in quick mode. The thresholds
// themselves live in the entries (they ARE the report's PASS/FAIL
// convention), so this single test asserts the entire E1–E15 claim set.
func TestSuitePassesQuick(t *testing.T) {
	for _, e := range Entries() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			sec := quickSection(t, e.ID, 7)
			if len(sec.Tables) == 0 && len(sec.Checks) == 0 {
				t.Fatalf("%s produced no tables and no checks", e.ID)
			}
		})
	}
}

// TestHeadlineMetrics spot-checks the strongest quantitative claims
// beyond the PASS/FAIL gates (the former experiments-package test
// assertions).
func TestHeadlineMetrics(t *testing.T) {
	e4 := quickSection(t, "E4", 7)
	if g, ok := metric(e4, "speedup-growth"); !ok || g <= 1 {
		t.Errorf("E4 speedup growth %v, want > 1", g)
	}
	e7 := quickSection(t, "E7", 7)
	if beta, _ := metric(e7, "beta"); beta < 0.25 || beta > 1 {
		t.Errorf("E7 beta %v outside [0.25, 1]", beta)
	}
	e12 := quickSection(t, "E12", 7)
	if div, _ := metric(e12, "max-divergence"); div > 1e-9 {
		t.Errorf("E12 rule/simulator divergence %v", div)
	}
}

// metric looks a section's headline number up by name.
func metric(sec Section, name string) (float64, bool) {
	for _, m := range sec.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// TestGoldenSection locks the rendered REPRODUCTION.md section format:
// the same spec + seed must produce this byte-exact section, at workers=1
// and workers=4 alike. Regenerate with -update after intentional format
// changes.
func TestGoldenSection(t *testing.T) {
	render := func(workers int) []byte {
		e, _ := ByID("E1")
		sec, err := e.RunEntry(Params{Quick: true, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := sec.WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1 := render(1)
	w4 := render(4)
	if !bytes.Equal(w1, w4) {
		t.Fatalf("E1 section differs between workers=1 and workers=4:\n--- w=1 ---\n%s\n--- w=4 ---\n%s", w1, w4)
	}

	golden := filepath.Join("testdata", "golden_e1_quick.md")
	if *update {
		if err := os.WriteFile(golden, w1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(w1, want) {
		t.Errorf("E1 section drifted from golden file (run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s", w1, want)
	}
}

// TestDocumentDeterministic renders the whole quick suite at several
// worker counts, which also bound how many entries run at once, and
// demands byte equality for both Markdown and JSON — the contract
// cmd/repro and the repro-smoke CI job rely on. Under -race it also
// race-checks the concurrent entries.
func TestDocumentDeterministic(t *testing.T) {
	gen := func(workers int) (string, string) {
		doc, err := Generate(Params{Quick: true, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var md, js bytes.Buffer
		if err := doc.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if err := doc.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return md.String(), js.String()
	}
	md0, js0 := gen(0)
	for _, workers := range []int{1, 3} {
		md, js := gen(workers)
		if md != md0 {
			t.Errorf("markdown differs between workers=0 and workers=%d", workers)
		}
		if js != js0 {
			t.Errorf("JSON differs between workers=0 and workers=%d", workers)
		}
	}
	back, err := ReadDocument(strings.NewReader(js0))
	if err != nil {
		t.Fatal(err)
	}
	all := Entries()
	if len(back.Sections) != len(all) {
		t.Fatalf("JSON round-trip has %d sections, want %d", len(back.Sections), len(all))
	}
	for i, sec := range back.Sections {
		if sec.ID != all[i].ID {
			t.Errorf("section %d is %s, want %s (suite order)", i, sec.ID, all[i].ID)
		}
	}
}

// TestReadDocumentRejectsTrailingData: ReadDocument decodes one value and
// fails on anything after it but whitespace.
func TestReadDocumentRejectsTrailingData(t *testing.T) {
	if _, err := ReadDocument(strings.NewReader("{\"paper\":\"x\"}\n")); err != nil {
		t.Fatalf("document with a trailing newline: %v", err)
	}
	for _, in := range []string{`{"paper":"x"}]]]`, `{"paper":"x"} {"paper":"y"}`, `{"paper":"x"} garbage`} {
		if _, err := ReadDocument(strings.NewReader(in)); err == nil {
			t.Errorf("ReadDocument(%s): expected error", in)
		}
	}
}

// TestGenerateDefaultWorkersCompletes guards the default pool: Workers 0
// (cmd/repro's default) must resolve to GOMAXPROCS, not to an unbuffered
// semaphore that blocks the first entry forever.
func TestGenerateDefaultWorkersCompletes(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Generate(Params{Quick: true})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Generate with Workers 0 did not complete")
	}
}

// TestGenerateSubsetOrder checks that a subset comes back in suite order
// whatever order it was requested in, and that an unknown ID is rejected.
func TestGenerateSubsetOrder(t *testing.T) {
	doc, err := GenerateSubset([]string{"E12", "E2", "E8"}, Params{Quick: true, Seed: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sec := range doc.Sections {
		got = append(got, sec.ID)
	}
	if strings.Join(got, ",") != "E2,E8,E12" {
		t.Errorf("sections %v, want [E2 E8 E12]", got)
	}
	if _, err := GenerateSubset([]string{"E2", "E99"}, Params{Quick: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestGenerateFirstErrorInSuiteOrder registers two failing entries, the
// later of which fails first, and checks that the earlier one's error is
// returned.
func TestGenerateFirstErrorInSuiteOrder(t *testing.T) {
	laterFailed := make(chan struct{})
	register(Entry{ID: "E97", Title: "t", Claim: "c", Run: func(Params) (Section, error) {
		<-laterFailed
		return Section{}, errors.New("first")
	}})
	register(Entry{ID: "E98", Title: "t", Claim: "c", Run: func(Params) (Section, error) {
		defer close(laterFailed)
		return Section{}, errors.New("second")
	}})
	t.Cleanup(func() { delete(registry, "E97"); delete(registry, "E98") })
	_, err := GenerateSubset([]string{"E97", "E98"}, Params{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "E97: first") {
		t.Errorf("error %v, want E97's", err)
	}
}

// TestVerdictCensoring pins the censoring-aware margin logic: censored
// cells can PASS a lower bound and FAIL an upper bound definitively, but
// everything else is inconclusive.
func TestVerdictCensoring(t *testing.T) {
	base := sweep.Cell{Spec: scenario.Spec{Algo: scenario.AlgoSpec{Name: "vanilla"}}}
	cases := []struct {
		name     string
		tav      float64
		censored int
		b        cellBounds
		want     Verdict
	}{
		{"no bounds", 10, 0, cellBounds{}, None},
		{"clean pass", 10, 0, cellBounds{lower: 8, upper: 20}, Pass},
		{"lower violation", 1, 0, cellBounds{lower: 100}, Fail},
		{"lower violation censored", 1, 1, cellBounds{lower: 100}, Cens},
		{"censored above lower is definitive", 50, 1, cellBounds{lower: 100}, Pass},
		{"upper violation", 100, 0, cellBounds{upper: 20}, Fail},
		{"upper violation censored is definitive", 100, 1, cellBounds{upper: 20}, Fail},
		{"censored below upper inconclusive", 10, 1, cellBounds{upper: 20}, Cens},
	}
	for _, tc := range cases {
		c := base
		c.Tav = tc.tav
		c.Censored = tc.censored
		if got := verdictFor(c, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFailuresSurface verifies a failing check is reported by
// Document.Failures (the hook cmd/repro -strict exits non-zero on).
func TestFailuresSurface(t *testing.T) {
	doc := &Document{Sections: []Section{{
		ID:     "EX",
		Checks: []Check{{Name: "broken", Pass: false}},
	}}}
	fails := doc.Failures()
	if len(fails) != 1 || !strings.Contains(fails[0], "broken") {
		t.Errorf("Failures() = %v", fails)
	}
	if fails := (&Document{}).Failures(); len(fails) != 0 {
		t.Errorf("empty document reported failures: %v", fails)
	}
}

// TestMarkdownEscapesPipes guards the GFM rendering of |E12|-style cells.
func TestMarkdownEscapesPipes(t *testing.T) {
	sec := Section{ID: "EX", Title: "t", Claim: "c", Tables: []Table{{
		Columns: []string{"|E12|"},
		Rows:    [][]string{{"|x|"}},
	}}}
	var buf bytes.Buffer
	if err := sec.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `\|E12\|`) || !strings.Contains(buf.String(), `\|x\|`) {
		t.Errorf("pipes not escaped:\n%s", buf.String())
	}
}

// runAllEpochs is the E6 driver that ends every run at its epoch cap,
// whatever the variance reached: the oracle for runToFloor.
func runAllEpochs(eng *sim.Engine, epoch float64, _ func() bool) {
	eng.RunUntil(e6Epochs * epoch)
}

// TestE6EndsAtFloorUnchanged checks that ending E6's runs after the epoch
// that reaches the float floor leaves the section exactly as the full
// e6Epochs-epoch runs give it, in quick mode (seeds 1 and 2) and in full
// mode, which backs REPRODUCTION.json (seed 1, and seed 3).
func TestE6EndsAtFloorUnchanged(t *testing.T) {
	for _, p := range []Params{{Quick: true, Seed: 1}, {Quick: true, Seed: 2}, {Seed: 1}, {Seed: 3}} {
		got, err := e6(p, runToFloor)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e6(p, runAllEpochs)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
			t.Errorf("%+v: E6 differs from the full-length runs:\n got %s\nwant %s", p, g, w)
		}
	}
}
