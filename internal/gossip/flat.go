package gossip

// FlatState is the memory-lean single-replica run state for the sharded
// large-run engine: one flat float64 per node and the tile bounds — no
// per-node heap objects, no per-event allocation. It is State tiled:
// each tile of the graph tiling owns a contiguous value range, so
// parallel tile workers touch disjoint state.
//
// Like State, values are stored centred by the initial mean and each
// exchange replays the uncentred arithmetic through the offset, keeping
// the floating-point trajectory bit-identical to the uncentred per-event
// simulator. TickTile and Exchange write values only; Mean and Variance
// read them, summing Σy and Σy² over each tile in node order and then
// over the tiles in tile order. That reduction is a function of the
// values and the tiling alone, so the moments are exact for the values
// and the same for any worker count. A read costs O(n), so the engine
// makes it only at its barriers.
//
// FlatState assumes vanilla (pairwise-average) exchanges: it implements
// sim.ShardKernel for the monotone hot path only.

import "fmt"

// FlatState holds tiled single-replica averaging state.
type FlatState struct {
	off    float64   // initial mean; stored values are x - off
	y      []float64 // centred node values
	lo, hi []int32   // tile node ranges, ascending
}

// NewFlatState builds tiled state from initial values and tile bounds
// ([lo, hi) pairs ascending and contiguous over [0, len(x0))), copying x0.
func NewFlatState(x0 []float64, bounds [][2]int32) (*FlatState, error) {
	n := len(x0)
	if n == 0 {
		return nil, fmt.Errorf("gossip: FlatState needs at least one node")
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("gossip: FlatState needs at least one tile")
	}
	var next int32
	for i, b := range bounds {
		if b[0] != next || b[1] <= b[0] {
			return nil, fmt.Errorf("gossip: tile %d bounds [%d,%d) not contiguous after %d", i, b[0], b[1], next)
		}
		next = b[1]
	}
	if int(next) != n {
		return nil, fmt.Errorf("gossip: tiles cover [0,%d) but state has %d nodes", next, n)
	}
	mean := 0.0
	for _, v := range x0 {
		mean += v
	}
	mean /= float64(n)
	s := &FlatState{
		off: mean,
		y:   make([]float64, n),
		lo:  make([]int32, len(bounds)),
		hi:  make([]int32, len(bounds)),
	}
	for i := range x0 {
		s.y[i] = x0[i] - mean
	}
	for i, b := range bounds {
		s.lo[i], s.hi[i] = b[0], b[1]
	}
	return s, nil
}

// N returns the node count.
func (s *FlatState) N() int { return len(s.y) }

// Value returns node u's current (uncentred) value.
func (s *FlatState) Value(u int) float64 { return s.y[u] + s.off }

// Mean returns the current global mean — conserved by averaging up to
// floating-point roundoff. It reads every value, so it must only be
// called from the single-threaded barrier phase.
func (s *FlatState) Mean() float64 {
	sum, _ := s.moments()
	return sum/float64(len(s.y)) + s.off
}

// Variance returns the population variance, clamped at zero. Like Mean,
// it reads every value (barrier phase only).
func (s *FlatState) Variance() float64 {
	sum, sumSq := s.moments()
	n := float64(len(s.y))
	m := sum / n
	v := sumSq/n - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// moments returns Σy and Σy² of the centred values: each tile's sums in
// node order, combined in tile order — deterministic for any worker
// count.
func (s *FlatState) moments() (sum, sumSq float64) {
	for t := range s.lo {
		var ts, tss float64
		for _, v := range s.y[s.lo[t]:s.hi[t]] {
			ts += v
			tss += v * v
		}
		sum += ts
		sumSq += tss
	}
	return sum, sumSq
}

// TickTile applies a chunk of internal exchanges to tile t's values. Both
// endpoints must lie inside the tile; only tile t's values are touched,
// so distinct tiles may tick concurrently. Each exchange replays
// State.AverageEdgesLazy's uncentred arithmetic, as Exchange does.
func (s *FlatState) TickTile(t int, us, vs []int32) {
	y, off := s.y, s.off
	vs = vs[:len(us)]
	for k := range us {
		i, j := us[k], vs[k]
		c := ((y[i] + off) + (y[j] + off)) / 2
		c -= off
		y[i] = c
		y[j] = c
	}
}

// Exchange applies one boundary exchange between nodes in (possibly)
// different tiles. It must only be called from the single-threaded
// barrier phase.
func (s *FlatState) Exchange(u, v int32) {
	c := ((s.y[u] + s.off) + (s.y[v] + s.off)) / 2
	c -= s.off
	s.y[u] = c
	s.y[v] = c
}
