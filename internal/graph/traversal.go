package graph

// This file provides the traversal utilities (BFS, connectivity, distance)
// that generators and cut detection rely on.

// BFSDistances returns the hop distance from src to every node, with -1 for
// unreachable nodes. It panics if src is out of range. The traversal runs
// over the flat adjacency with a fixed-capacity cursor queue — Diameter
// calls this once per node, so the all-pairs cost matters on the larger
// experiment graphs.
func BFSDistances(g *Graph, src NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 1, g.NumNodes())
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, he := range g.Neighbors(u) {
			if v := he.Peer; dist[v] == -1 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// IsConnected reports whether g has a single connected component. The empty
// graph is considered disconnected; the one-node graph connected.
func IsConnected(g *Graph) bool {
	n := g.NumNodes()
	if n == 0 {
		return false
	}
	dist := BFSDistances(g, 0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from src to any reachable
// node, and whether the whole graph was reachable.
func Eccentricity(g *Graph, src NodeID) (ecc int, connected bool) {
	connected = true
	for _, d := range BFSDistances(g, src) {
		if d == -1 {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// Diameter returns the exact diameter via all-pairs BFS. It is O(V·E) and
// intended for the small graphs used in tests and experiments. It returns
// -1 for disconnected or empty graphs.
func Diameter(g *Graph) int {
	if g.NumNodes() == 0 {
		return -1
	}
	diam := 0
	for u := 0; u < g.NumNodes(); u++ {
		ecc, ok := Eccentricity(g, NodeID(u))
		if !ok {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DegreeSum returns the sum of all degrees (2|E| on any valid graph —
// asserted by property tests, not here).
func DegreeSum(g *Graph) int {
	s := 0
	for u := 0; u < g.NumNodes(); u++ {
		s += g.Degree(NodeID(u))
	}
	return s
}
