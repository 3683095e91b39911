package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"sparsecut/internal/report"
)

// repro-full is the headline user job, `cmd/repro -full`: the whole E1–E15
// reproduction report in full mode on a two-worker sweep pool.
//
//   - job: one full report, checked byte for byte against the committed
//     REPRODUCTION.json and for FAIL rows;
//   - operation: one verdict (a PASS/FAIL/CENS table row or a derived
//     check), so ops_per_s is verdicts per second;
//   - set-up: loading the committed reference and a quick-mode report, the
//     CI-sized pass, which warms the same code paths.
//
// The report is generated at its committed seed, 1, whatever --seed says:
// only that seed has a committed artifact to check the output against.
const (
	reproSeed      = 1
	reproReference = "REPRODUCTION.json"
)

func runRepro(_ uint64, budget time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var ref []byte
	setup, err := timeSetups(setupRepeats(tr), func() error {
		var err error
		if ref, err = loadReference(); err != nil {
			return err
		}
		doc, err := report.Generate(report.Params{Quick: true, Seed: reproSeed, Workers: workers})
		if err != nil {
			return err
		}
		if f := doc.Failures(); len(f) > 0 {
			return checkf("quick-mode report has failures: %v", f)
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	o.metrics["setup_s"] = setup

	if tr != nil {
		return o, traceRepro(ref, tr, o)
	}
	var walls, rates []float64
	err = repeat(budget, 3, func() (time.Duration, error) {
		start := time.Now()
		doc, err := report.Generate(report.Params{Seed: reproSeed, Workers: workers})
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		verdicts, err := checkReport(doc, ref, o)
		if err != nil {
			return 0, err
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(verdicts)/wall.Seconds())
		return wall, nil
	})
	if err != nil {
		return o, err
	}
	o.metrics["wall_s"] = median(walls)
	o.metrics["ops_per_s"] = median(rates)
	summarize("repro-full", walls)
	return o, nil
}

// traceRepro generates the report entry by entry, exactly as
// report.Generate assembles it, with a span around each Entry.RunEntry.
func traceRepro(ref []byte, tr *tracer, o *outcome) error {
	p := report.Params{Seed: reproSeed, Workers: workers}
	doc := &report.Document{Paper: report.PaperID, Mode: p.Mode(), Seed: p.Seed}
	root := tr.begin("repro-full", 0)
	for _, e := range report.Entries() {
		id := tr.begin("report."+e.ID, root)
		sec, err := e.RunEntry(p)
		tr.end(id)
		if err != nil {
			return err
		}
		doc.Sections = append(doc.Sections, sec)
	}
	tr.end(root)
	if _, err := checkReport(doc, ref, o); err != nil {
		return err
	}
	for _, e := range report.Entries() {
		o.metrics["report."+e.ID+"_s"] = tr.seconds("report." + e.ID)
	}
	o.metrics["residual_frac.repro-full"] = tr.residual(root)
	return nil
}

// loadReference reads the committed full-mode report and makes sure it
// decodes.
func loadReference() ([]byte, error) {
	ref, err := os.ReadFile(reproReference)
	if err != nil {
		return nil, fmt.Errorf("reading the reference report: %w", err)
	}
	if _, err := report.ReadDocument(bytes.NewReader(ref)); err != nil {
		return nil, fmt.Errorf("%s: %w", reproReference, err)
	}
	return ref, nil
}

// checkReport counts the document's verdicts into o, and fails when any is
// a FAIL or when its JSON differs from the reference. It returns the
// number of verdicts.
func checkReport(doc *report.Document, ref []byte, o *outcome) (int64, error) {
	var verdicts, fails int64
	for _, s := range doc.Sections {
		verdicts += int64(s.Verdicts.Pass+s.Verdicts.Fail+s.Verdicts.Cens) + int64(len(s.Checks))
		fails += int64(s.Verdicts.Fail + len(s.FailedChecks()))
	}
	o.attempted += verdicts
	o.failed += fails
	if f := doc.Failures(); len(f) > 0 {
		return 0, checkf("report has failures: %v", f)
	}
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return 0, err
	}
	if err := sameBytes(buf.Bytes(), ref); err != nil {
		return 0, err
	}
	return verdicts, nil
}

// sameBytes fails when got differs from want, naming the first differing
// byte offset.
func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return checkf("report JSON differs from %s at byte %d (%d vs %d bytes)", reproReference, i, len(got), len(want))
}
