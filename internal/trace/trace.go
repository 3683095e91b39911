// Package trace records time series produced during simulations (variance
// trajectories, epoch boundaries) and writes them as CSV — the repository's
// "figure" output format.
//
// Key types: Series, WriteCSV — the figure-style trajectory output of
// cmd/gossipsim -csv (DESIGN.md §4).
package trace

import (
	"bufio"
	"errors"
	"io"
	"strconv"
)

// Series is an append-only time series of (T, V) points.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one point. Points should be appended in nondecreasing T
// order; Len and At do not enforce it but WriteCSV preserves order as
// appended.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// At returns the i-th point.
func (s *Series) At(i int) (t, v float64) { return s.T[i], s.V[i] }

// Last returns the final point; ok is false for an empty series.
func (s *Series) Last() (t, v float64, ok bool) {
	if len(s.T) == 0 {
		return 0, 0, false
	}
	return s.T[len(s.T)-1], s.V[len(s.V)-1], true
}

// WriteCSV writes one or more series sharing no time base as long-format
// CSV with header "series,t,value".
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return errors.New("trace: no series to write")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("series,t,value\n"); err != nil {
		return err
	}
	for _, s := range series {
		name := s.Name
		if name == "" {
			name = "series"
		}
		for i := range s.T {
			bw.WriteString(name)
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(s.T[i], 'g', 10, 64))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatFloat(s.V[i], 'g', 10, 64))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
