package graph

// This file holds the deterministic graph generators. Random generators
// live in random.go; composite sparse-cut constructions in dumbbell.go.

import (
	"fmt"
	"math"
)

// Complete returns the complete graph K_n. It panics if n < 1.
func Complete(n int) *Graph {
	b := NewBuilder(n).SetName(fmt.Sprintf("complete(n=%d)", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.MustBuild()
}

// Path returns the path graph P_n (n-1 edges). It panics if n < 1.
func Path(n int) *Graph {
	b := NewBuilder(n).SetName(fmt.Sprintf("path(n=%d)", n))
	for u := 0; u+1 < n; u++ {
		b.AddEdge(NodeID(u), NodeID(u+1))
	}
	return b.MustBuild()
}

// Cycle returns the cycle C_n. It panics if n < 3.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("cycle(n=%d)", n))
	for u := 0; u < n; u++ {
		b.AddEdge(NodeID(u), NodeID((u+1)%n))
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1} with node 0 as the hub. It panics if n < 2.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: star needs n >= 2, got %d", n))
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("star(n=%d)", n))
	for u := 1; u < n; u++ {
		b.AddEdge(0, NodeID(u))
	}
	return b.MustBuild()
}

// Grid returns the rows x cols 2-D lattice with 4-neighbour connectivity.
// Node (r, c) has ID r*cols + c. It panics unless rows, cols >= 1.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: grid needs positive dims, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows * cols).
		SetName(fmt.Sprintf("grid(%dx%d)", rows, cols)).
		SetPositions(gridPositions(rows, cols))
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// gridPositions lays rows x cols nodes on the unit square, used by DOT
// export of lattice graphs for nicer rendering.
func gridPositions(rows, cols int) []Point {
	pos := make([]Point, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos[r*cols+c] = Point{
				X: float64(c) / math.Max(1, float64(cols-1)),
				Y: float64(r) / math.Max(1, float64(rows-1)),
			}
		}
	}
	return pos
}
