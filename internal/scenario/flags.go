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
// and one flag per family shape parameter. It returns the GraphSpec that
// fs.Parse fills.
func GraphFlags(fs *flag.FlagSet, family string, n int) *GraphSpec {
	gs := &GraphSpec{Family: family, N: n}
	fs.StringVar(&gs.Family, "graph", family, "graph family: "+strings.Join(FamilyNames(), " | "))
	fs.Var((*count)(&gs.N), "n", "total node `count` (accepts 1e6 notation)")
	fs.IntVar(&gs.Cut, "cut", 0, "cut edges / doors / bridges (0 = family default)")
	fs.IntVar(&gs.N1, "n1", 0, "side-1 size (two-sided families)")
	fs.IntVar(&gs.N2, "n2", 0, "side-2 size (two-sided families)")
	fs.IntVar(&gs.InnerCut, "innercut", 0, "hierdumbbell inner cut width")
	fs.IntVar(&gs.Rows, "rows", 0, "grid/torus rows")
	fs.IntVar(&gs.Cols, "cols", 0, "grid/torus cols")
	fs.IntVar(&gs.Dim, "dim", 0, "hypercube dimension")
	fs.IntVar(&gs.Levels, "levels", 0, "binary-tree levels")
	fs.IntVar(&gs.Tail, "tail", 0, "lollipop tail length")
	fs.IntVar(&gs.Blocks, "blocks", 0, "ring-of-cliques block count")
	fs.IntVar(&gs.Degree, "degree", 0, "random-regular degree")
	fs.Float64Var(&gs.P, "p", 0, "G(n,p) edge probability")
	fs.Float64Var(&gs.PIn, "pin", 0, "planted within-side density")
	fs.Float64Var(&gs.POut, "pout", 0, "planted cross-side density")
	fs.Float64Var(&gs.Radius, "radius", 0, "RGG/sensor radius multiplier")
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
