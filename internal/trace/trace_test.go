package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("var")
	if _, _, ok := s.Last(); ok {
		t.Error("empty series reported a last point")
	}
	s.Add(0, 1)
	s.Add(1, 0.5)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	tt, v := s.At(1)
	if tt != 1 || v != 0.5 {
		t.Errorf("At(1) = %v, %v", tt, v)
	}
	lt, lv, ok := s.Last()
	if !ok || lt != 1 || lv != 0.5 {
		t.Errorf("Last = %v, %v, %v", lt, lv, ok)
	}
}

func TestWriteCSV(t *testing.T) {
	a := NewSeries("alpha")
	a.Add(0, 1)
	a.Add(0.5, 0.25)
	b := NewSeries("")
	b.Add(1, 2)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "series,t,value" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "alpha,0,1") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "series,1,2") {
		t.Errorf("unnamed series row = %q", lines[3])
	}
}

func TestWriteCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf); err == nil {
		t.Error("no-series write not rejected")
	}
}
