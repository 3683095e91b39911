package scenario

import (
	"flag"
	"io"
	"testing"
)

// Every graph flag lands in its own GraphSpec field, and the caller's
// family and node count are the defaults.
func TestGraphFlagsFillSpec(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	gs := GraphFlags(fs, "complete", 3)
	if *gs != (GraphSpec{Family: "complete", N: 3}) {
		t.Fatalf("defaults: %+v", *gs)
	}
	err := fs.Parse([]string{
		"-graph", "planted", "-n", "1e6", "-cut", "2", "-n1", "3", "-n2", "4",
		"-blocks", "11", "-pin", "0.5", "-pout", "0.125", "-radius", "1.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := GraphSpec{
		Family: "planted", N: 1000000, Cut: 2, N1: 3, N2: 4, Blocks: 11,
		PIn: 0.5, POut: 0.125, Radius: 1.5,
	}
	if *gs != want {
		t.Errorf("parsed %+v\nwant   %+v", *gs, want)
	}
}

// -n takes integers in either notation and rejects, with an error, any
// count that is zero, fractional, negative or too large, however it is
// written.
func TestGraphFlagsNodeCount(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want int
		ok   bool
	}{
		{"64", 64, true},
		{"1e6", 1000000, true},
		{"3e5", 300000, true},
		{"1", 1, true},
		{"0", 0, false},
		{"1.5", 0, false},
		{"1e12", 0, false},
		{"3000000000", 0, false},
		{"-3", 0, false},
		{"-3e0", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"ten", 0, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		gs := GraphFlags(fs, "dumbbell", 16)
		err := fs.Parse([]string{"-n", c.arg})
		switch {
		case c.ok && err != nil:
			t.Errorf("-n %s: %v", c.arg, err)
		case c.ok && gs.N != c.want:
			t.Errorf("-n %s: N = %d, want %d", c.arg, gs.N, c.want)
		case !c.ok && err == nil:
			t.Errorf("-n %s: accepted as N = %d", c.arg, gs.N)
		}
	}
}
