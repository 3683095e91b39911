// Package gossip implements the distributed-averaging algorithms the paper
// compares against — vanilla pairwise gossip, the general convex class C of
// Definition 2, and a push-sum baseline — together with the shared value
// state they (and the paper's Algorithm A in internal/core) operate on.
//
// The State type maintains the running sum and sum of squares of the value
// vector incrementally, so the variance the paper's averaging-time metric
// needs is available in O(1) after every event rather than O(n).
//
// Key types: State (O(1) incremental moments), Algorithm (the update rule
// in two forms, sim.TickKernel's lazy TickEdges and the tracked
// TickChunkTracked, which take no event times, plus the observables) and
// Ensemble (R single runs as one replica batch, driven only through the
// tracked chunk). See DESIGN.md §6 (fused kernels) and §8 (replica
// batching).
package gossip

import (
	"fmt"
	"math"

	"sparsecut/internal/graph"
)

// resyncInterval bounds floating-point drift of the incremental moments:
// after this many point updates the sums are recomputed exactly.
const resyncInterval = 1 << 16

// State holds the node values of an averaging process plus incrementally
// maintained first and second moments.
//
// Internally the values are stored centered by the initial mean (algorithms
// in this repository are linear and shift-invariant, so running them on
// centered values is equivalent); this avoids the catastrophic cancellation
// that computing Σx² − (Σx)²/n would suffer once the process has converged
// to a large common mean. Values() reconstructs the original frame.
type State struct {
	offset  float64 // initial mean, added back on read
	y       []float64
	sum     float64 // Σy
	sumSq   float64 // Σy²
	updates int     // point updates since the last exact resync
	// dirty marks the incremental moments stale: the lazy batch updates
	// (AverageEdgesLazy and friends) touch only the values and defer the
	// moment bookkeeping to the next moment read, which resyncs exactly.
	dirty bool
}

// NewState initialises state from the vector x0 (copied, not aliased).
func NewState(x0 []float64) *State {
	s := &State{y: append([]float64(nil), x0...)}
	if len(x0) > 0 {
		m := 0.0
		for _, v := range x0 {
			m += v
		}
		s.offset = m / float64(len(x0))
		for i := range s.y {
			s.y[i] -= s.offset
		}
	}
	s.resync()
	return s
}

// N returns the number of nodes.
func (s *State) N() int { return len(s.y) }

// Get returns the value at node i in the original (uncentered) frame.
func (s *State) Get(i int) float64 { return s.y[i] + s.offset }

// Set assigns node i the value v (original frame), updating the moments in
// O(1).
func (s *State) Set(i int, v float64) {
	old := s.y[i]
	c := v - s.offset
	s.y[i] = c
	s.sum += c - old
	s.sumSq += c*c - old*old
	s.updates++
	if s.updates >= resyncInterval {
		s.resync()
	}
}

// set2 assigns nodes i and j (i != j) the values vi, vj (original frame),
// updating the moments with the arithmetic of Set(i, vi); Set(j, vj) but
// without the resync accounting: a tracked chunk accounts its point
// updates once, in endChunk.
func (s *State) set2(i, j int, vi, vj float64) {
	yi, yj := s.y[i], s.y[j]
	ci := vi - s.offset
	cj := vj - s.offset
	s.y[i] = ci
	s.y[j] = cj
	s.sum += ci - yi
	s.sum += cj - yj
	s.sumSq += ci*ci - yi*yi
	s.sumSq += cj*cj - yj*yj
}

// AverageEdgesLazy applies the vanilla exchange for every edge of the
// batch (endpoints resolved through the flat arrays eu, ev), updating the
// values only: the moment bookkeeping is deferred to the next moment read,
// which recomputes exactly. This is the untracked simulation hot loop —
// per event it costs two loads, one fused average and two stores, with
// sum/Σ² chains removed entirely. The stored values are bit-identical to
// the unfused Get/Set sequence.
func (s *State) AverageEdgesLazy(edges []graph.EdgeID, eu, ev []int32) {
	y, off := s.y, s.offset
	for _, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := y[i], y[j]
		c := ((yi + off) + (yj + off)) / 2
		c -= off
		y[i] = c
		y[j] = c
	}
	s.dirty = true
}

// ConvexEdgesLazy is AverageEdgesLazy for the class-C exchange with mixing
// parameter alpha.
func (s *State) ConvexEdgesLazy(edges []graph.EdgeID, eu, ev []int32, alpha float64) {
	y, off := s.y, s.offset
	beta := 1 - alpha
	for _, e := range edges {
		i, j := eu[e], ev[e]
		xi, xj := y[i]+off, y[j]+off
		y[i] = alpha*xi + beta*xj - off
		y[j] = alpha*xj + beta*xi - off
	}
	s.dirty = true
}

// Set2Lazy assigns nodes i and j (i != j) the values vi, vj (original
// frame), deferring the moment bookkeeping like AverageEdgesLazy.
func (s *State) Set2Lazy(i, j int, vi, vj float64) {
	s.y[i] = vi - s.offset
	s.y[j] = vj - s.offset
	s.dirty = true
}

// AverageEdgesTracked applies the vanilla exchange for every edge of the
// chunk with eager per-event moments, and returns the index within edges
// of the last event whose post-tick variance exceeded level (-1 if none
// did) together with the post-chunk variance. The values and moments are
// bit-identical to the unfused Get/Set sequence (both endpoints set to
// (x_i+x_j)/2) except that the resync is accounted once, at chunk end.
// Each event is classified with the division-free scaled compare
//
//	var > level  ⇔  n·Σy² − (Σy)² > n²·level,
//
// two multiplies and a compare instead of two divisions, so it can differ
// from a Variance read only by one ulp at the threshold.
func (s *State) AverageEdgesTracked(edges []graph.EdgeID, eu, ev []int32, level float64) (lastIdx int, endVar float64) {
	s.syncIfDirty()
	y, off, fn := s.y, s.offset, float64(len(s.y))
	scaledLevel := level * fn * fn
	sum, sumSq := s.sum, s.sumSq
	lastIdx = -1
	for k, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := y[i], y[j]
		c := ((yi + off) + (yj + off)) / 2
		c -= off
		y[i] = c
		y[j] = c
		sum += c - yi
		sum += c - yj
		cc := c * c
		sumSq += cc - yi*yi
		sumSq += cc - yj*yj
		if sumSq*fn-sum*sum > scaledLevel {
			lastIdx = k
		}
	}
	s.sum, s.sumSq = sum, sumSq
	return lastIdx, s.endChunk(2 * len(edges))
}

// ConvexEdgesTracked is AverageEdgesTracked for the class-C exchange with
// mixing parameter alpha:
//
//	x_i ← α·x_i + (1−α)·x_j,  x_j ← α·x_j + (1−α)·x_i(old)
func (s *State) ConvexEdgesTracked(edges []graph.EdgeID, eu, ev []int32, alpha, level float64) (lastIdx int, endVar float64) {
	s.syncIfDirty()
	y, off, fn := s.y, s.offset, float64(len(s.y))
	beta := 1 - alpha
	scaledLevel := level * fn * fn
	sum, sumSq := s.sum, s.sumSq
	lastIdx = -1
	for k, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := y[i], y[j]
		xi, xj := yi+off, yj+off
		ci := alpha*xi + beta*xj - off
		cj := alpha*xj + beta*xi - off
		y[i] = ci
		y[j] = cj
		sum += ci - yi
		sum += cj - yj
		sumSq += ci*ci - yi*yi
		sumSq += cj*cj - yj*yj
		if sumSq*fn-sum*sum > scaledLevel {
			lastIdx = k
		}
	}
	s.sum, s.sumSq = sum, sumSq
	return lastIdx, s.endChunk(2 * len(edges))
}

// scaledVariance returns n·Σy² − (Σy)², the variance in the frame of the
// tracked compares (n² times the variance).
func (s *State) scaledVariance() float64 {
	return s.sumSq*float64(len(s.y)) - s.sum*s.sum
}

// endChunk closes a tracked chunk of pointUpdates updates: it resyncs on
// the Set cadence (at chunk rather than event granularity — the drift
// bound is the same order) and returns the post-chunk variance.
func (s *State) endChunk(pointUpdates int) float64 {
	s.updates += pointUpdates
	if s.updates >= resyncInterval {
		s.resync()
	}
	return s.Variance()
}

// Values returns a fresh copy of the value vector in the original frame.
func (s *State) Values() []float64 {
	out := make([]float64, len(s.y))
	s.CopyInto(out)
	return out
}

// CopyInto writes the value vector (original frame) into dst — the
// allocation-free counterpart of Values for trajectory recording that
// samples repeatedly into a reused buffer. It panics if len(dst) != N().
func (s *State) CopyInto(dst []float64) {
	if len(dst) != len(s.y) {
		panic("gossip: CopyInto buffer length mismatch")
	}
	for i, v := range s.y {
		dst[i] = v + s.offset
	}
}

// syncIfDirty makes the moments exact after lazy batch updates.
func (s *State) syncIfDirty() {
	if s.dirty {
		s.resync()
		s.dirty = false
	}
}

// Mean returns the current average value. For the sum-preserving algorithms
// in this repository it is invariant over time up to float rounding.
func (s *State) Mean() float64 {
	if len(s.y) == 0 {
		return math.NaN()
	}
	s.syncIfDirty()
	return s.offset + s.sum/float64(len(s.y))
}

// Sum returns the current total Σx in the original frame.
func (s *State) Sum() float64 {
	s.syncIfDirty()
	return s.sum + s.offset*float64(len(s.y))
}

// Variance returns the paper's varX: the population variance of the value
// vector, maintained incrementally (recomputed exactly on the first read
// after a lazy batch update).
func (s *State) Variance() float64 {
	n := float64(len(s.y))
	if n == 0 {
		return 0
	}
	s.syncIfDirty()
	m := s.sum / n
	v := s.sumSq/n - m*m
	if v < 0 { // float rounding can push a converged process slightly negative
		return 0
	}
	return v
}

// resync recomputes the moments exactly.
func (s *State) resync() {
	s.sum, s.sumSq = 0, 0
	for _, v := range s.y {
		s.sum += v
		s.sumSq += v * v
	}
	s.updates = 0
}

// String describes the state compactly.
func (s *State) String() string {
	return fmt.Sprintf("state(n=%d, mean=%.6g, var=%.6g)", s.N(), s.Mean(), s.Variance())
}
