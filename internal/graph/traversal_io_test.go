package graph

import (
	"bytes"
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
