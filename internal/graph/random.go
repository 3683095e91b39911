package graph

// Random graph generators. All take an explicit *rng.RNG so experiments are
// reproducible from a single seed.

import (
	"fmt"
	"math"

	"sparsecut/internal/rng"
)

// ConnectivityRadius returns the standard RGG connectivity threshold
// sqrt(2 ln n / n), a convenient default radius.
func ConnectivityRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Sqrt(2 * math.Log(float64(n)) / float64(n))
}

// WalledRGG returns a random geometric graph on the unit square bisected by
// a vertical wall at x = 0.5: edges crossing the wall are removed except for
// the `doors` crossing pairs closest to the wall. This is the sensor-network
// scenario with a geometrically forced sparse cut (motivated by the paper's
// reference [6]). The returned partition marks the two sides. The sample is
// retried until both sides are internally connected and at least one door
// exists; it returns an error after maxTries attempts.
func WalledRGG(r *rng.RNG, n int, radius float64, doors, maxTries int) (*Graph, *Partition, error) {
	if doors < 1 {
		return nil, nil, fmt.Errorf("graph: WalledRGG needs doors >= 1, got %d", doors)
	}
	for try := 0; try < maxTries; try++ {
		pos := make([]Point, n)
		for i := range pos {
			pos[i] = Point{X: r.Float64(), Y: r.Float64()}
		}
		g, part, err := buildWalledRGG(pos, radius, doors)
		if err == nil {
			return g, part, nil
		}
	}
	return nil, nil, fmt.Errorf("graph: no valid WalledRGG(n=%d, r=%v, doors=%d) in %d tries", n, radius, doors, maxTries)
}

func buildWalledRGG(pos []Point, radius float64, doors int) (*Graph, *Partition, error) {
	n := len(pos)
	side := make([]Side, n)
	for i, p := range pos {
		if p.X >= 0.5 {
			side[i] = Side2
		}
	}
	b := NewBuilder(n).SetName(fmt.Sprintf("walled-rgg(n=%d,doors=%d)", n, doors)).SetPositions(pos)
	r2 := radius * radius
	type crossing struct {
		u, v NodeID
		gap  float64 // combined distance from the wall; smaller = more door-like
	}
	var crossings []crossing
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx := pos[u].X - pos[v].X
			dy := pos[u].Y - pos[v].Y
			if dx*dx+dy*dy >= r2 {
				continue
			}
			if side[u] == side[v] {
				b.AddEdge(NodeID(u), NodeID(v))
			} else {
				gap := math.Abs(pos[u].X-0.5) + math.Abs(pos[v].X-0.5)
				crossings = append(crossings, crossing{NodeID(u), NodeID(v), gap})
			}
		}
	}
	if len(crossings) < doors {
		return nil, nil, fmt.Errorf("graph: only %d crossings available for %d doors", len(crossings), doors)
	}
	// Select the `doors` crossings nearest the wall (deterministic given positions).
	for k := 0; k < doors; k++ {
		best := k
		for j := k + 1; j < len(crossings); j++ {
			if crossings[j].gap < crossings[best].gap {
				best = j
			}
		}
		crossings[k], crossings[best] = crossings[best], crossings[k]
		b.AddEdge(crossings[k].u, crossings[k].v)
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	part, err := NewPartition(g, side)
	if err != nil {
		return nil, nil, err
	}
	if !sidesInternallyConnected(part) {
		return nil, nil, fmt.Errorf("graph: walled RGG sides not internally connected")
	}
	return g, part, nil
}
