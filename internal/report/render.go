package report

import (
	"encoding/json"
	"fmt"
	"io"

	"sparsecut/internal/table"
)

// WriteMarkdown renders the document as REPRODUCTION.md. The output is a
// pure function of (Mode, Seed): same inputs, same bytes.
func (d *Document) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# REPRODUCTION — %s\n\n", d.Paper)
	fmt.Fprintf(w, "Generated by `go run ./cmd/repro -%s -seed %d`. Do not edit by hand —\n", d.Mode, d.Seed)
	fmt.Fprintf(w, "rerun the command to regenerate; the output byte-matches across reruns\n")
	fmt.Fprintf(w, "(the CI job `repro-smoke` verifies both determinism and the absence of\n")
	fmt.Fprintf(w, "FAIL rows on every push). Margin conventions are documented in\n")
	fmt.Fprintf(w, "DESIGN.md §9; the `.json` file written alongside is the\n")
	fmt.Fprintf(w, "machine-readable twin.\n\n")
	fmt.Fprintf(w, "Verdicts: **PASS** — measured value satisfies the paper's bound within\n")
	fmt.Fprintf(w, "the documented margin; **FAIL** — definitive violation; **CENS** —\n")
	fmt.Fprintf(w, "censored trials make the comparison inconclusive; **-** — informational\n")
	fmt.Fprintf(w, "row with no claimed bound.\n\n")

	fmt.Fprintf(w, "## Summary\n\n")
	sum := table.New("", "experiment", "title", "rows PASS", "rows FAIL", "rows CENS", "checks PASS", "checks FAIL", "verdict")
	for _, s := range d.Sections {
		checksPass, checksFail := 0, 0
		for _, c := range s.Checks {
			if c.Pass {
				checksPass++
			} else {
				checksFail++
			}
		}
		verdict := Pass
		if s.Verdicts.Fail > 0 || checksFail > 0 {
			verdict = Fail
		}
		sum.AddRow(s.ID, s.Title, s.Verdicts.Pass, s.Verdicts.Fail, s.Verdicts.Cens,
			checksPass, checksFail, string(verdict))
	}
	if err := sum.RenderMarkdown(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	for i := range d.Sections {
		if err := d.Sections[i].WriteMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders one experiment's section.
func (s *Section) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "## %s: %s\n\n", s.ID, s.Title)
	fmt.Fprintf(w, "**Claim.** %s\n\n", s.Claim)
	for _, t := range s.Tables {
		if t.Name != "" {
			fmt.Fprintf(w, "**%s**\n\n", t.Name)
		}
		mt := table.New("", t.Columns...)
		for _, row := range t.Rows {
			mt.AddRow(toAny(row)...)
		}
		if err := mt.RenderMarkdown(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if len(s.Checks) > 0 {
		fmt.Fprintf(w, "**Derived checks**\n\n")
		ct := table.New("", "check", "value", "requirement", "verdict")
		for _, c := range s.Checks {
			v := Pass
			if !c.Pass {
				v = Fail
			}
			ct.AddRow(c.Name, c.Value, c.Requirement, string(v))
		}
		if err := ct.RenderMarkdown(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range s.Notes {
		fmt.Fprintf(w, "> %s\n\n", n)
	}
	return nil
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// WriteJSON writes the indented machine-readable document plus a trailing
// newline. Encoding iterates slices only, so it is deterministic.
func (d *Document) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("report: encoding document: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadDocument parses a document written by WriteJSON; anything but
// whitespace after it is an error.
func ReadDocument(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decoding document: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("report: decoding document: trailing data after the document")
	}
	return &d, nil
}
