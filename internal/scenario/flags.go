package scenario

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// GraphFlags registers the graph flags of every single-graph CLI on fs:
// -graph and -n, defaulting to the caller's family and node count, -cut,
// and one flag per family shape parameter. The -graph help text is the
// family catalogue. It returns the GraphSpec that fs.Parse fills.
func GraphFlags(fs *flag.FlagSet, family string, n int) *GraphSpec {
	gs := &GraphSpec{Family: family, N: n}
	fs.StringVar(&gs.Family, "graph", family, "graph `family`, one of:\n"+strings.TrimSuffix(Usage(), "\n"))
	fs.Var((*count)(&gs.N), "n", "total node `count` (accepts 1e6 notation)")
	fs.IntVar(&gs.Cut, "cut", 0, "cut edges / doors / bridges (0 = family default)")
	fs.IntVar(&gs.N1, "n1", 0, "side-1 size (two-sided families)")
	fs.IntVar(&gs.N2, "n2", 0, "side-2 size (two-sided families)")
	fs.IntVar(&gs.Blocks, "blocks", 0, "ring-of-cliques block count")
	fs.Float64Var(&gs.PIn, "pin", 0, "planted within-side density")
	fs.Float64Var(&gs.POut, "pout", 0, "planted cross-side density")
	fs.Float64Var(&gs.Radius, "radius", 0, "sensor radius multiplier")
	return gs
}

// count is the -n flag's value: a node count written as an integer or in
// scientific notation ("1e6"), in [1, 2^31). Anything else fails, 0 too:
// a spec's N = 0 means "the default", which a typed -n 0 must not pick.
type count int

func (c *count) String() string {
	if c == nil {
		return "0"
	}
	return strconv.Itoa(int(*c))
}

func (c *count) Set(s string) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 1 || f != math.Trunc(f) || f > math.MaxInt32 {
		return fmt.Errorf("node count %q is not an integer in [1, 2^31)", s)
	}
	*c = count(f)
	return nil
}
