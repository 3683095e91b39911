package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sparsecut/internal/sweep"
)

// TestParseIntsRanges pins the range forms, including ranges that reach
// the int limits without a step that overflows.
func TestParseIntsRanges(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"16,24", []int{16, 24}},
		{"1..4", []int{1, 2, 3, 4}},
		{"32..256..x2", []int{32, 64, 128, 256}},
		{"3..10..x3", []int{3, 9}},
		{"1..10..+4", []int{1, 5, 9}},
		{"-3..3..+3", []int{-3, 0, 3}},
		{strconv.Itoa(math.MinInt) + ".." + strconv.Itoa(math.MinInt+1), []int{math.MinInt, math.MinInt + 1}},
		{strconv.Itoa(math.MinInt) + "..-1..+" + maxInt, []int{math.MinInt, -1}},
		{"1..10..x" + maxInt, []int{1}},
	} {
		got, err := parseInts(c.in)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestParseIntsRejects covers inputs that must fail with an error, among
// them lists too long for any grid, which must fail before the list is
// built, and ranges whose next step would overflow an int.
func TestParseIntsRejects(t *testing.T) {
	capList := strconv.Itoa(sweep.MaxUnits)
	for _, in := range []string{
		"",
		"x",
		"1..",
		"4..1",
		"1..4..x1",
		"0..4..x2",
		"1..4..+0",
		"1..4..y2",
		"1..1000000000",
		"4..9223372036854775807..x2",
		"9223372036854775806..9223372036854775807..+5",
		"9223372036854775807..9223372036854775807",
		"4611686018427387904..9223372036854775807..x2",
		"-9223372036854775808..9223372036854775807",
		"1.." + capList + ",0",
		"0.." + capList,
	} {
		if got, err := parseInts(in); err == nil {
			t.Errorf("parseInts(%q) = %d values, want an error", in, len(got))
		}
	}
	if got, err := parseInts("1.." + capList); err != nil || len(got) != sweep.MaxUnits {
		t.Errorf("a list of exactly %d values: %d values, %v", sweep.MaxUnits, len(got), err)
	}
}

// FuzzParseInts fuzzes the integer-list flags' parser: every input must
// either fail with an error or return at most sweep.MaxUnits values, each
// list element's values in order, and each range's values strictly rising
// within [lo, hi] — a step that wrapped past the int limits would break
// both. The committed corpus under testdata/fuzz/FuzzParseInts holds the
// inputs of TestParseIntsRejects.
func FuzzParseInts(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseInts(s)
		if err != nil {
			return
		}
		if len(got) > sweep.MaxUnits {
			t.Fatalf("parseInts(%q) returned %d values, more than %d", s, len(got), sweep.MaxUnits)
		}
		rest := got
		for _, part := range splitList(s) {
			vals, err := parseInts(part)
			if err != nil || len(vals) > len(rest) || !slices.Equal(vals, rest[:len(vals)]) {
				t.Fatalf("parseInts(%q) = %v, but its element %q gives %v, %v", s, got, part, vals, err)
			}
			rest = rest[len(vals):]
			bounds := strings.Split(part, "..")
			lo, _ := strconv.Atoi(bounds[0])
			hi, _ := strconv.Atoi(bounds[min(1, len(bounds)-1)])
			for i, v := range vals {
				if v < lo || v > hi || (i > 0 && v <= vals[i-1]) {
					t.Fatalf("parseInts(%q) = %v: value %d breaks [%d, %d] or order", part, vals, v, lo, hi)
				}
			}
		}
		if len(rest) != 0 {
			t.Fatalf("parseInts(%q) = %v has %d values its elements do not account for", s, got, len(rest))
		}
	})
}
