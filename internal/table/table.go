// Package table renders the experiment harness's results as fixed-width
// text or Markdown tables — the repository's "table" output format.
//
// Key type: Table (Render for aligned text, RenderMarkdown with pipe escaping — the REPRODUCTION.md backend, DESIGN.md §9).
package table

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-oriented text table. Construct with New, append
// rows with AddRow, then Render or RenderMarkdown.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// New creates a table with the given title (may be empty) and headers.
func New(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Values are formatted with %v; float64 values are
// formatted with 4 significant digits. Rows shorter than the header are
// padded; longer rows are accepted and widen the table.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *Table) widths() []int {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	w := make([]int, cols)
	for i, h := range t.headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.title != "" {
		fmt.Fprintf(bw, "%s\n", t.title)
	}
	widths := t.widths()
	writeRow := func(cells []string) {
		for i := 0; i < len(widths); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				bw.WriteString("  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], c)
		}
		bw.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(widths))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return bw.Flush()
}

// RenderMarkdown writes the table as GitHub-flavoured Markdown. Pipe
// characters inside cells (|E12|, set notation, …) are escaped so they
// cannot be mistaken for column separators.
func (t *Table) RenderMarkdown(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.title != "" {
		fmt.Fprintf(bw, "### %s\n\n", t.title)
	}
	ncols := len(t.widths())
	cell := func(cells []string, i int) string {
		if i < len(cells) {
			return strings.ReplaceAll(cells[i], "|", "\\|")
		}
		return ""
	}
	for i := 0; i < ncols; i++ {
		fmt.Fprintf(bw, "| %s ", cell(t.headers, i))
	}
	bw.WriteString("|\n")
	for i := 0; i < ncols; i++ {
		bw.WriteString("| --- ")
	}
	bw.WriteString("|\n")
	for _, r := range t.rows {
		for i := 0; i < ncols; i++ {
			fmt.Fprintf(bw, "| %s ", cell(r, i))
		}
		bw.WriteString("|\n")
	}
	return bw.Flush()
}
