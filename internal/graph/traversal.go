package graph

// This file provides the traversal utilities (BFS distances, connectivity)
// that generators and cut detection rely on.

// BFSDistances returns the hop distance from src to every node, with -1 for
// unreachable nodes. It panics if src is out of range. The traversal runs
// over the flat adjacency with a fixed-capacity cursor queue.
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
