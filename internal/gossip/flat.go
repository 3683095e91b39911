package gossip

// FlatState is the memory-lean single-replica run state for the sharded
// large-run engine: one flat float64 per node plus O(tiles) moment
// accumulators — no per-node heap objects, no per-event allocation. It is
// State tiled: each tile of the graph tiling owns a contiguous value
// range and its own (sum, sumSq) moments, so parallel tile workers touch
// disjoint state and the global variance combines per-tile moments in a
// fixed order — a deterministic reduction for any worker count.
//
// Like State, values are stored centred by the initial mean and each
// exchange replays the uncentred arithmetic through the offset, keeping
// the floating-point trajectory bit-identical to the uncentred per-event
// simulator. A tile's chunk has two forms, as an Algorithm's ticks do:
//
//   - TickTile (ShardEngine.RunUntil) updates the values only and marks
//     the tile dirty; Mean and Variance re-accumulate dirty tiles' moments
//     from the values before they read them, as State's lazy loops do.
//   - TickTileTracked (ShardEngine.RunTracked) maintains the moments
//     eagerly with the same fused updates as State.AverageEdgesTracked,
//     and re-accumulates them from scratch to stop drift: tile t resyncs
//     after max(resyncInterval, its node count) updates, so the amortised
//     resync cost stays at most one sequential read per update at any
//     tile size. A dirty tile is resynced before its first tracked chunk.
//
// Both forms leave the same values, the resync period depends only on the
// tiling, and the moments never feed back into the values, so the
// trajectory is the same for any worker count and either form.
//
// FlatState assumes vanilla (pairwise-average) exchanges: it implements
// sim.ShardKernel for the monotone hot path only.

import (
	"fmt"
	"sort"
)

// FlatState holds tiled single-replica averaging state.
type FlatState struct {
	off float64   // initial mean; stored values are x - off
	y   []float64 // centred node values

	lo, hi []int32   // tile node ranges, ascending
	sum    []float64 // per-tile Σ y; stale while the tile is dirty
	sumSq  []float64 // per-tile Σ y²; stale while the tile is dirty
	ops    []int64   // per-tile tracked and boundary updates since the last resync
	dirty  []bool    // per-tile: TickTile moved values since the last resync
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
		off:   mean,
		y:     make([]float64, n),
		lo:    make([]int32, len(bounds)),
		hi:    make([]int32, len(bounds)),
		sum:   make([]float64, len(bounds)),
		sumSq: make([]float64, len(bounds)),
		ops:   make([]int64, len(bounds)),
		dirty: make([]bool, len(bounds)),
	}
	for i := range x0 {
		s.y[i] = x0[i] - mean
	}
	for i, b := range bounds {
		s.lo[i], s.hi[i] = b[0], b[1]
		s.resyncTile(i)
	}
	return s, nil
}

// N returns the node count.
func (s *FlatState) N() int { return len(s.y) }

// Tiles returns the tile count.
func (s *FlatState) Tiles() int { return len(s.lo) }

// Value returns node u's current (uncentred) value.
func (s *FlatState) Value(u int) float64 { return s.y[u] + s.off }

// Mean returns the current global mean — conserved by averaging up to
// floating-point roundoff. It resyncs dirty tiles first, so it must only
// be called from the single-threaded barrier phase.
func (s *FlatState) Mean() float64 {
	s.resyncDirty()
	var sum float64
	for i := range s.sum {
		sum += s.sum[i]
	}
	return sum/float64(len(s.y)) + s.off
}

// Variance returns the population variance, combining per-tile moments
// in tile order (deterministic for any worker count), clamped at zero.
// Like Mean, it resyncs dirty tiles first (barrier phase only).
func (s *FlatState) Variance() float64 {
	s.resyncDirty()
	var sum, sumSq float64
	for i := range s.sum {
		sum += s.sum[i]
		sumSq += s.sumSq[i]
	}
	n := float64(len(s.y))
	m := sum / n
	v := sumSq/n - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// TickTile applies a chunk of internal exchanges to tile t's values and
// marks the tile dirty, leaving its moments to the next Mean or Variance.
// Both endpoints must lie inside the tile; only tile t's state is touched,
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
	s.dirty[t] = true
}

// TickTileTracked is TickTile with tile t's moments maintained eagerly:
// the chunk's moment deltas are summed and added to the tile's moments,
// its update count advances, and the tile resyncs when the count reaches
// its period. A dirty tile is resynced first. The values are those
// TickTile leaves.
func (s *FlatState) TickTileTracked(t int, us, vs []int32) {
	if s.dirty[t] {
		s.resyncTile(t)
	}
	y, off := s.y, s.off
	vs = vs[:len(us)]
	var dSum, dSumSq float64
	for k := range us {
		i, j := us[k], vs[k]
		yi, yj := y[i], y[j]
		c := ((yi + off) + (yj + off)) / 2
		c -= off
		y[i] = c
		y[j] = c
		cc := c * c
		dSum += c + c - yi - yj
		dSumSq += cc + cc - yi*yi - yj*yj
	}
	s.sum[t] += dSum
	s.sumSq[t] += dSumSq
	s.ops[t] += int64(len(us))
	if s.ops[t] >= s.resyncPeriod(t) {
		s.resyncTile(t)
	}
}

// Exchange applies one boundary exchange between nodes in (possibly)
// different tiles. It must only be called from the single-threaded
// barrier phase.
func (s *FlatState) Exchange(u, v int32) {
	yi, yj := s.y[u], s.y[v]
	c := ((yi + s.off) + (yj + s.off)) / 2
	c -= s.off
	s.y[u] = c
	s.y[v] = c
	cc := c * c
	tu, tv := s.tileOf(u), s.tileOf(v)
	s.sum[tu] += c - yi
	s.sumSq[tu] += cc - yi*yi
	s.sum[tv] += c - yj
	s.sumSq[tv] += cc - yj*yj
	s.bumpOps(tu)
	if tv != tu {
		s.bumpOps(tv)
	}
}

func (s *FlatState) bumpOps(t int) {
	s.ops[t]++
	if s.ops[t] >= s.resyncPeriod(t) {
		s.resyncTile(t)
	}
}

// resyncPeriod is tile t's resync period in updates: resyncInterval, or
// the tile's node count when that is larger, so a resync scan costs at
// most one read per update. Tiles of up to resyncInterval nodes keep the
// exact resyncInterval period.
func (s *FlatState) resyncPeriod(t int) int64 {
	return max(resyncInterval, int64(s.hi[t]-s.lo[t]))
}

// tileOf locates the tile containing node u.
func (s *FlatState) tileOf(u int32) int {
	return sort.Search(len(s.hi), func(i int) bool { return s.hi[i] > u })
}

// resyncDirty resyncs every dirty tile, in tile order.
func (s *FlatState) resyncDirty() {
	for t, d := range s.dirty {
		if d {
			s.resyncTile(t)
		}
	}
}

// resyncTile re-accumulates tile t's moments from the values, bounding
// incremental drift, and marks the tile clean.
func (s *FlatState) resyncTile(t int) {
	var sum, sumSq float64
	for _, v := range s.y[s.lo[t]:s.hi[t]] {
		sum += v
		sumSq += v * v
	}
	s.sum[t] = sum
	s.sumSq[t] = sumSq
	s.ops[t] = 0
	s.dirty[t] = false
}
