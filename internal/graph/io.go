package graph

// Plain-text I/O: a minimal edge-list format for persisting generated
// graphs and a Graphviz DOT exporter for visual inspection.
//
// Edge-list format (line-oriented, '#' comments):
//
//	# name: dumbbell(n1=4,n2=4,cut=1)
//	nodes 8
//	0 1
//	0 2
//	...

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList serialises g in the package's edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if g.Name() != "" {
		fmt.Fprintf(bw, "# name: %s\n", g.Name())
	}
	fmt.Fprintf(bw, "nodes %d\n", g.NumNodes())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// ReadEdgeList parses the package's edge-list format. Edge IDs are assigned
// in file order. Graph names round-trip through the "# name:" comment.
func ReadEdgeList(rd io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	name := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if rest, ok := strings.CutPrefix(line, "# name:"); ok {
				name = strings.TrimSpace(rest)
			}
			continue
		case strings.HasPrefix(line, "nodes"):
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate nodes header", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed nodes header %q", lineNo, line)
			}
			n, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			b = NewBuilder(int(n)).SetName(name)
		default:
			if b == nil {
				return nil, fmt.Errorf("graph: line %d: edge before nodes header", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
			}
			// Ids are parsed at NodeID's width: a wider parse would wrap in
			// the NodeID conversion and alias an in-range node.
			u, err1 := strconv.ParseInt(fields[0], 10, 32)
			v, err2 := strconv.ParseInt(fields[1], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
			}
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: edge list missing nodes header")
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.name = name
	return g, nil
}

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
