package table

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderPlain(t *testing.T) {
	tbl := New("E1: scaling", "n", "Tav", "bound")
	tbl.AddRow(32, 12.5, 16.0)
	tbl.AddRow(64, 25.1234567, 32.0)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1: scaling") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Tav") {
		t.Error("header missing")
	}
	if !strings.Contains(out, "25.12") {
		t.Errorf("float not formatted to 4 significant digits:\n%s", out)
	}
	if !strings.Contains(out, "---") {
		t.Error("separator missing")
	}
	if len(tbl.rows) != 2 {
		t.Errorf("%d rows, want 2", len(tbl.rows))
	}
}

func TestRenderAlignsColumns(t *testing.T) {
	tbl := New("", "a", "bbbbbb")
	tbl.AddRow("xxxxxxxx", 1)
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	// Column 2 should start at the same offset in header and data rows.
	hIdx := strings.Index(lines[0], "bbbbbb")
	dIdx := strings.Index(lines[2], "1")
	if hIdx != dIdx {
		t.Errorf("column 2 misaligned: header at %d, data at %d\n%s", hIdx, dIdx, buf.String())
	}
}

func TestRenderShortAndLongRows(t *testing.T) {
	tbl := New("", "a", "b")
	tbl.AddRow(1)       // short
	tbl.AddRow(1, 2, 3) // long
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3") {
		t.Error("extra column dropped")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tbl := New("Results", "x", "y")
	tbl.AddRow(1, 2.0)
	var buf bytes.Buffer
	if err := tbl.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "### Results") {
		t.Error("markdown title missing")
	}
	if !strings.Contains(out, "| x | y |") {
		t.Errorf("markdown header missing:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- |") {
		t.Error("markdown separator missing")
	}
	if !strings.Contains(out, "| 1 | 2 |") {
		t.Errorf("markdown row missing:\n%s", out)
	}
}

func TestFloat32Formatting(t *testing.T) {
	tbl := New("", "v")
	tbl.AddRow(float32(1.23456789))
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1.235") {
		t.Errorf("float32 not formatted: %s", buf.String())
	}
}
