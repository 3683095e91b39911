// Package report is the reproduction pipeline: it re-expresses the paper's
// evaluation suite E1–E15 as declarative scenario grids (internal/scenario)
// run through the deterministic parallel sweep engine (internal/sweep) and
// the replica-batched simulation engine, computes the paper's predicted
// bounds per cell from internal/spectral (the Theorem 1 sparse-cut lower
// bound and the spectral-gap upper bounds), and renders the results as a
// deterministic REPRODUCTION.md with explicit PASS/FAIL margin checks,
// plus a machine-readable JSON twin.
//
// Key types: Entry (one registered experiment), Section (one experiment's
// finished tables, checks and metrics), Document (the full rendered
// suite), Params (quick/full mode, seed, workers). Generate runs the whole
// registry; cmd/repro is the thin driver.
//
// Determinism contract: a Document is a pure function of (mode, seed) —
// the sweep engine is bit-identical for any worker count, every
// check-shaped experiment derives all randomness from Params.Seed, and
// rendering iterates slices only (never maps), so the emitted Markdown and
// JSON byte-match across reruns. The package test proves it, and the CI
// job repro-smoke re-proves it on every push. See DESIGN.md §9.
package report

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"sparsecut/internal/sweep"
)

// Params configures a reproduction run.
type Params struct {
	// Quick selects CI-sized budgets (reduced n, trials); full mode
	// regenerates the committed REPRODUCTION.md numbers.
	Quick bool
	// Seed drives all randomness (default 1).
	Seed uint64
	// Workers is the pool size (default GOMAXPROCS): it bounds both the
	// sweep workers inside an entry and how many entries GenerateSubset
	// runs at once. It never affects results, only wall-clock time.
	Workers int

	// cache shares cell estimates between the entries of one
	// GenerateSubset call (nil: every sweep estimates its own cells).
	cache *sweep.Cache
}

func (p Params) withDefaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Mode renders the budget mode name used in document headers.
func (p Params) Mode() string {
	if p.Quick {
		return "quick"
	}
	return "full"
}

// pick returns quick when Params.Quick is set, full otherwise.
func pick[T any](p Params, quick, full T) T {
	if p.Quick {
		return quick
	}
	return full
}

// Verdict classifies one measured-vs-bound comparison.
type Verdict string

const (
	// Pass means the measurement satisfies the bound within the
	// documented margin (DESIGN.md §9).
	Pass Verdict = "PASS"
	// Fail means the measurement definitively violates the bound — even
	// accounting for censoring direction.
	Fail Verdict = "FAIL"
	// Cens means censored trials make the comparison inconclusive: the
	// measured value is only a lower bound on the true Tav, and the
	// check direction cannot be decided from it.
	Cens Verdict = "CENS"
	// None marks informational rows with no claimed bound.
	None Verdict = "-"
)

// Table is one rendered table: deterministic, pre-formatted cells.
type Table struct {
	Name    string     `json:"name,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Check is one derived claim check (a slope, a speedup, an equivalence
// tolerance) with its PASS/FAIL outcome.
type Check struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	Requirement string  `json:"requirement"`
	Pass        bool    `json:"pass"`
}

// Metric is one named headline number, kept as an ordered list (not a
// map) so JSON output is deterministic. Benchmarks and tests key on the
// names.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Section is one experiment's finished output.
type Section struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	Claim  string  `json:"claim"`
	Tables []Table `json:"tables,omitempty"`
	// Checks are the derived claim checks; a section PASSes when none
	// fail and no table row is a definitive FAIL.
	Checks []Check  `json:"checks,omitempty"`
	Notes  []string `json:"notes,omitempty"`
	// Verdicts counts table-row verdicts for the summary.
	Verdicts VerdictCount `json:"verdicts"`
	Metrics  []Metric     `json:"metrics,omitempty"`
}

// VerdictCount tallies table-row verdicts.
type VerdictCount struct {
	Pass int `json:"pass"`
	Fail int `json:"fail"`
	Cens int `json:"cens"`
}

// countVerdict tallies one table-row verdict as it is computed (typed,
// never re-parsed from the rendered cells).
func (s *Section) countVerdict(v Verdict) {
	switch v {
	case Pass:
		s.Verdicts.Pass++
	case Fail:
		s.Verdicts.Fail++
	case Cens:
		s.Verdicts.Cens++
	}
}

func (s *Section) addMetric(name string, v float64) {
	s.Metrics = append(s.Metrics, Metric{Name: name, Value: v})
}

func (s *Section) addCheck(name string, value float64, requirement string, pass bool) {
	s.Checks = append(s.Checks, Check{Name: name, Value: value, Requirement: requirement, Pass: pass})
}

// FailedChecks returns the names of failing checks.
func (s *Section) FailedChecks() []string {
	var out []string
	for _, c := range s.Checks {
		if !c.Pass {
			out = append(out, c.Name)
		}
	}
	return out
}

// Entry is one registered experiment of the reproduction suite.
type Entry struct {
	// ID is the experiment identifier ("E1".."E15").
	ID string
	// Title is a one-line description for listings.
	Title string
	// Claim cites the paper statement the experiment reproduces.
	Claim string
	// Run executes the experiment and returns its finished section.
	Run func(p Params) (Section, error)
}

var registry = map[string]Entry{}

func register(e Entry) {
	if _, dup := registry[e.ID]; dup {
		panic("report: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Entries returns every registered experiment sorted by numeric ID.
func Entries() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Entry, bool) {
	e, ok := registry[id]
	return e, ok
}

// RunEntry executes one experiment with the section header fields filled.
// Verdict counts are tallied by runGrid as it computes them.
func (e Entry) RunEntry(p Params) (Section, error) {
	p = p.withDefaults()
	sec, err := e.Run(p)
	if err != nil {
		return Section{}, fmt.Errorf("report: %s: %w", e.ID, err)
	}
	sec.ID, sec.Title, sec.Claim = e.ID, e.Title, e.Claim
	return sec, nil
}

// Document is one finished reproduction: every section in suite order.
type Document struct {
	// Paper names the reproduced source.
	Paper string `json:"paper"`
	// Mode is "quick" or "full"; Seed is the root seed. The document is
	// a pure function of these two fields.
	Mode string `json:"mode"`
	Seed uint64 `json:"seed"`
	// Sections holds one entry per experiment, in suite order.
	Sections []Section `json:"sections"`
}

// PaperID is the reproduced paper's identifier.
const PaperID = "conf_podc_Narayanan08 — Hariharan Narayanan, \"Distributed averaging in the presence of a sparse cut\" (PODC 2008)"

// Generate runs the whole registry and assembles the document.
func Generate(p Params) (*Document, error) {
	return GenerateSubset(nil, p)
}

// GenerateSubset runs the named experiments (nil or empty = all) and
// assembles them in suite order regardless of the requested order. The
// entries run concurrently, at most Params.Workers at a time; each is a
// pure function of Params, so the document does not depend on the pool
// size. On failure it returns the first error in suite order.
func GenerateSubset(ids []string, p Params) (*Document, error) {
	p = p.withDefaults()
	want := map[string]bool{}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			return nil, fmt.Errorf("report: unknown experiment %q", id)
		}
		want[id] = true
	}
	var entries []Entry
	for _, e := range Entries() {
		if len(want) == 0 || want[e.ID] {
			entries = append(entries, e)
		}
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One cache per call: entries that sweep the same cell (in full mode,
	// E1's α = ½ column is E4's vanilla column) estimate it once. It must
	// not outlive the call, or a repeated report would cost nothing.
	p.cache = &sweep.Cache{}
	secs := make([]Section, len(entries))
	errs := make([]error, len(entries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			secs[i], errs[i] = e.RunEntry(p)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Document{Paper: PaperID, Mode: p.Mode(), Seed: p.Seed, Sections: secs}, nil
}

// Failures lists every definitive failure in the document, as
// "Ek: <check or table row>" strings. An empty result means the
// reproduction PASSes (censored rows are inconclusive, not failures).
func (d *Document) Failures() []string {
	var out []string
	for _, s := range d.Sections {
		for _, name := range s.FailedChecks() {
			out = append(out, fmt.Sprintf("%s: check %q failed", s.ID, name))
		}
		if s.Verdicts.Fail > 0 {
			out = append(out, fmt.Sprintf("%s: %d table row(s) FAIL", s.ID, s.Verdicts.Fail))
		}
	}
	return out
}
