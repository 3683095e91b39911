package graph

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestBFSDistancesPath(t *testing.T) {
	g := Path(5)
	d := BFSDistances(g, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(2, 3).MustBuild()
	d := BFSDistances(g, 0)
	if d[2] != -1 || d[3] != -1 {
		t.Error("unreachable nodes should have distance -1")
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(Complete(5)) {
		t.Error("K_5 reported disconnected")
	}
	if IsConnected(NewBuilder(3).AddEdge(0, 1).MustBuild()) {
		t.Error("disconnected graph reported connected")
	}
	var empty Graph
	if IsConnected(&empty) {
		t.Error("empty graph reported connected")
	}
	single := NewBuilder(1).MustBuild()
	if !IsConnected(single) {
		t.Error("single node reported disconnected")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(4)
	ecc, ok := Eccentricity(g, 1)
	if !ok || ecc != 2 {
		t.Errorf("ecc(1) = %d,%v, want 2,true", ecc, ok)
	}
	if d := Diameter(g); d != 3 {
		t.Errorf("diameter %d", d)
	}
	if d := Diameter(NewBuilder(2).MustBuild()); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
	var empty Graph
	if d := Diameter(&empty); d != -1 {
		t.Errorf("empty diameter = %d, want -1", d)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g1, _, err := Dumbbell(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g1); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g1.NumNodes() || g2.NumEdges() != g1.NumEdges() {
		t.Fatalf("round trip changed size: %s -> %s", g1, g2)
	}
	if g2.Name() != g1.Name() {
		t.Errorf("name %q -> %q", g1.Name(), g2.Name())
	}
	for i := 0; i < g1.NumEdges(); i++ {
		if g1.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "0 1\n",
		"empty":            "",
		"bad count":        "nodes x\n",
		"bad edge":         "nodes 2\n0 a\n",
		"short edge":       "nodes 2\n0\n",
		"duplicate header": "nodes 2\nnodes 2\n",
		"out of range":     "nodes 2\n0 5\n",
		"self loop":        "nodes 2\n1 1\n",
		// Ids and counts outside int32 once wrapped in the NodeID
		// conversion, so 2^32 silently became node 0.
		"id 2^32":         "nodes 3\n4294967296 1\n",
		"peer 2^32+1":     "nodes 3\n0 4294967297\n",
		"negative wrap":   "nodes 3\n0 1\n-4294967295 2\n",
		"node count 2^32": "nodes 4294967296\n0 1\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
				t.Errorf("input %q parsed without error", in)
			}
		})
	}
}

func TestReadEdgeListSkipsBlanksAndComments(t *testing.T) {
	in := "# a comment\n\nnodes 3\n# another\n0 1\n\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("parsed %s", g)
	}
}

func TestWriteDOT(t *testing.T) {
	g, p, err := Dumbbell(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "graph") || !strings.Contains(out, "--") {
		t.Errorf("missing DOT structure:\n%s", out)
	}
	if !strings.Contains(out, "color=red") {
		t.Error("cut edge not highlighted")
	}
	if !strings.Contains(out, "lightblue") || !strings.Contains(out, "lightsalmon") {
		t.Error("sides not coloured")
	}
}

func TestWriteDOTNoPartition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDOT(&buf, Grid(2, 2), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "color=red") {
		t.Error("unexpected cut highlighting without partition")
	}
	if !strings.Contains(buf.String(), "pos=") {
		t.Error("grid positions not exported")
	}
}

// FuzzReadEdgeList feeds arbitrary bytes to the edge-list decoder. Every
// input must fail cleanly or decode to a well-formed simple graph whose
// edge list and name survive a WriteEdgeList/ReadEdgeList round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Build allocates O(n) for the declared node count up front by
		// design, so a large header only exercises the allocator: near
		// 2^31 it would exhaust the fuzzer's memory, and past 2^16 it
		// already slows every exec and minimization to a crawl.
		for line := range strings.Lines(string(data)) {
			line = strings.TrimSpace(line)
			if fields := strings.Fields(line); len(fields) == 2 && strings.HasPrefix(line, "nodes") {
				if n, err := strconv.ParseInt(fields[1], 10, 64); err == nil && n > 1<<16 {
					t.Skip("node count above 2^16")
				}
			}
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireWellFormed(t, g)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading the written edge list: %v\n%s", err, buf.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.Name() != g.Name() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %s %q %v -> %s %q %v",
				g, g.Name(), g.Edges(), g2, g2.Name(), g2.Edges())
		}
	})
}

// requireWellFormed checks that g is a simple graph whose adjacency rows
// are strictly ascending and agree with its edge list.
func requireWellFormed(t *testing.T, g *Graph) {
	t.Helper()
	n, m := g.NumNodes(), g.NumEdges()
	seen := make(map[Edge]bool, m)
	for id, e := range g.Edges() {
		if e.U < 0 || e.U >= e.V || int(e.V) >= n {
			t.Fatalf("edge %d = %v: want 0 <= U < V < %d", id, e, n)
		}
		if seen[e] {
			t.Fatalf("edge %v appears twice", e)
		}
		seen[e] = true
	}
	halves := make([]int, m)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(NodeID(u))
		for k, he := range nb {
			if k > 0 && nb[k-1].Peer >= he.Peer {
				t.Fatalf("node %d: row not strictly ascending: %v", u, nb)
			}
			if he.Edge < 0 || int(he.Edge) >= m {
				t.Fatalf("node %d: half-edge %+v names no edge", u, he)
			}
			if e := g.Edge(he.Edge); e != NewEdge(NodeID(u), he.Peer) {
				t.Fatalf("node %d: half-edge %+v but edge %d is %v", u, he, he.Edge, e)
			}
			halves[he.Edge]++
		}
	}
	for id, c := range halves {
		if c != 2 {
			t.Fatalf("edge %d appears in %d adjacency rows, want 2", id, c)
		}
	}
}
