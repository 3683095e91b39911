package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"sparsecut/internal/scenario"
	"sparsecut/internal/table"
)

// Cell is one finished grid cell: the normalized scenario plus the
// censoring-aware Tav estimate and the streamed per-trial statistics.
type Cell struct {
	Index int           `json:"index"`
	Label string        `json:"label"`
	Spec  scenario.Spec `json:"spec"`
	// Seed is the unit seed (also planted in Spec.Seed); replaying the
	// spec alone reproduces the cell.
	Seed uint64 `json:"seed"`
	// Nodes, Edges and CutSize describe the built graph (CutSize is 0 for
	// families without a planted partition).
	Nodes   int `json:"nodes,omitempty"`
	Edges   int `json:"edges,omitempty"`
	CutSize int `json:"cut_size,omitempty"`
	// Trials/Censored/Events account for the Monte-Carlo budget. Censored
	// trials hit MaxTime still above threshold, so Tav is a lower bound.
	Trials   int   `json:"trials,omitempty"`
	Censored int   `json:"censored,omitempty"`
	Events   int64 `json:"events,omitempty"`
	// Tav is the Definition-1 quantile estimate; the remaining fields are
	// the Welford moments and quartiles of the per-trial last-exceedance
	// times.
	Tav    float64 `json:"tav,omitempty"`
	Mean   float64 `json:"mean,omitempty"`
	StdDev float64 `json:"stddev,omitempty"`
	CI95   float64 `json:"ci95,omitempty"`
	Min    float64 `json:"min,omitempty"`
	Q25    float64 `json:"q25,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q75    float64 `json:"q75,omitempty"`
	Max    float64 `json:"max,omitempty"`
	// Error records a per-cell failure (the sweep itself keeps going).
	Error string `json:"error,omitempty"`
}

// TavString renders Tav with the censoring marker: ">=x" when any trial
// was censored (the estimate is then a lower bound).
func (c Cell) TavString() string {
	if c.Error != "" {
		return "error"
	}
	if c.Censored > 0 {
		return fmt.Sprintf(">=%.4g", c.Tav)
	}
	return fmt.Sprintf("%.4g", c.Tav)
}

// Report is a sweep's machine-readable result: the grid as requested, the
// root seed, and one cell per unit in expansion order. Marshalling is
// deterministic — same grid and seed, same bytes, whatever the worker
// count.
type Report struct {
	Grid  Grid   `json:"grid"`
	Seed  uint64 `json:"seed"`
	Cells []Cell `json:"cells"`
}

// WriteJSON writes the indented JSON encoding plus a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encoding report: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ParseGrid reads a Grid from JSON, rejecting unknown fields so schema
// typos fail loudly, and anything but whitespace after the grid.
func ParseGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweep: parsing grid: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Grid{}, fmt.Errorf("sweep: parsing grid: trailing data after the grid")
	}
	return g, nil
}

// Table renders the report as the repository's text-table format.
func (r *Report) Table(title string) *table.Table {
	tbl := table.New(title,
		"cell", "n", "|E|", "|E12|", "algo", "Tav", "mean±95%", "median", "trials", "cens", "events")
	for _, c := range r.Cells {
		if c.Error != "" {
			tbl.AddRow(c.Label, c.Nodes, c.Edges, c.CutSize, c.Spec.Algo.Name,
				"error", c.Error, "", "", "", "")
			continue
		}
		tbl.AddRow(c.Label, c.Nodes, c.Edges, c.CutSize, c.Spec.Algo.Name,
			c.TavString(), fmt.Sprintf("%.4g±%.3g", c.Mean, c.CI95),
			c.Median, c.Trials, c.Censored, c.Events)
	}
	return tbl
}
