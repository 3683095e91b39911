package graph

// Graphviz DOT export for visual inspection (cmd/graphgen -dot).

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDOT exports g in Graphviz format. When part is non-nil, the two
// sides are coloured and cut edges drawn bold red. Positions, when present,
// are emitted as pos attributes (usable with neato -n).
func WriteDOT(w io.Writer, g *Graph, part *Partition) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n", dotName(g))
	fmt.Fprintf(bw, "  node [shape=circle, fontsize=10];\n")
	for u := 0; u < g.NumNodes(); u++ {
		attrs := []string{}
		if part != nil {
			color := "lightblue"
			if part.SideOf(NodeID(u)) == Side2 {
				color = "lightsalmon"
			}
			attrs = append(attrs, "style=filled", "fillcolor="+color)
		}
		if g.HasPositions() {
			p := g.Position(NodeID(u))
			attrs = append(attrs, fmt.Sprintf("pos=\"%.4f,%.4f!\"", p.X*10, p.Y*10))
		}
		if len(attrs) > 0 {
			fmt.Fprintf(bw, "  %d [%s];\n", u, strings.Join(attrs, ", "))
		}
	}
	for id, e := range g.Edges() {
		if part != nil && part.IsCutEdge(EdgeID(id)) {
			fmt.Fprintf(bw, "  %d -- %d [color=red, penwidth=2.5];\n", e.U, e.V)
		} else {
			fmt.Fprintf(bw, "  %d -- %d;\n", e.U, e.V)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func dotName(g *Graph) string {
	if g.Name() == "" {
		return "G"
	}
	return g.Name()
}
