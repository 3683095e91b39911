package sim

import (
	"sort"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Test references for the engine's global-clock scheduler: the per-edge
// heap is the paper's timing model verbatim, and cdfSampler is the
// pre-alias edge picker. Neither drives the engine; the tests check the
// superposed global clock and the alias table against them.

// impliedProb returns the exact probability the table assigns to index i —
// used by tests to verify the construction against the input weights.
func (t *aliasTable) impliedProb(i int32) float64 {
	n := float64(len(t.prob))
	p := t.prob[i]
	for j, a := range t.alias {
		if a == i && int32(j) != i {
			p += 1 - t.prob[j]
		}
	}
	return p / n
}

// cdfSampler is the pre-alias prefix-sum sampler (O(log n) binary search
// per pick). It is retained as the reference implementation: the package
// tests cross-check the alias table's edge-frequency distribution against
// it on identical weight vectors.
type cdfSampler struct {
	cum   []float64
	total float64
}

func newCDFSampler(rates []float64) *cdfSampler {
	c := &cdfSampler{cum: make([]float64, len(rates))}
	acc := 0.0
	for i, rate := range rates {
		acc += rate
		c.cum[i] = acc
	}
	c.total = acc
	return c
}

func (c *cdfSampler) pick(r *rng.RNG) int32 {
	target := r.Float64() * c.total
	idx := sort.SearchFloat64s(c.cum, target)
	if idx >= len(c.cum) {
		idx = len(c.cum) - 1
	}
	return int32(idx)
}

// heapScheduler keeps one exponential timer per edge in a 4-ary min-heap —
// the paper's model verbatim. After an edge fires, its next tick is
// resampled, exploiting the memorylessness of the exponential distribution.
//
// The heap is 4-ary rather than binary: half the depth means half the
// cache lines touched per sift, and the four children of node i occupy one
// contiguous 64-byte run (heapEntry is 16 bytes), so the per-level scan is
// a single cache line. Tick times are continuous, so the minimum is unique
// with probability 1 and the popped event sequence — hence the RNG draw
// order — is identical to the binary heap's.
type heapScheduler struct {
	r        *rng.RNG
	invRates []float64 // 1/rate per edge: resampling multiplies, never divides
	heap     []heapEntry
}

type heapEntry struct {
	at   float64
	edge graph.EdgeID
}

func newHeapScheduler(rates []float64, r *rng.RNG) *heapScheduler {
	s := &heapScheduler{r: r, invRates: make([]float64, len(rates)), heap: make([]heapEntry, 0, len(rates))}
	for e, rate := range rates {
		s.invRates[e] = 1 / rate
	}
	// Batched unit gaps, scaled per edge below.
	gaps := make([]float64, len(rates))
	r.FillExp(gaps, 1)
	for e := range rates {
		s.push(heapEntry{at: gaps[e] * s.invRates[e], edge: graph.EdgeID(e)})
	}
	return s
}

func (s *heapScheduler) next() (graph.EdgeID, float64) {
	top := s.heap[0]
	// Resample this edge's next tick and sift it down from the root.
	s.heap[0] = heapEntry{at: top.at + s.r.ExpUnit()*s.invRates[top.edge], edge: top.edge}
	s.siftDown(0)
	return top.edge, top.at
}

func (s *heapScheduler) push(e heapEntry) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	// Hole insertion: slide parents down instead of swapping, one store
	// per level plus the final placement.
	for i > 0 {
		parent := (i - 1) / 4
		if s.heap[parent].at <= e.at {
			break
		}
		s.heap[i] = s.heap[parent]
		i = parent
	}
	s.heap[i] = e
}

// siftDown restores the 4-ary heap property from index i. The moving
// entry is held in a register and children slide up into the hole — one
// store per level instead of a three-store swap — and the four-child
// minimum scan is an unconditional four-way compare chain over one
// contiguous cache line, with the (rare) tail of the array handled by a
// separate partial scan.
func (s *heapScheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	moving := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		minIdx := first
		minAt := h[first].at
		if first+4 <= n {
			// Full fan-out: all four children exist.
			if h[first+1].at < minAt {
				minIdx, minAt = first+1, h[first+1].at
			}
			if h[first+2].at < minAt {
				minIdx, minAt = first+2, h[first+2].at
			}
			if h[first+3].at < minAt {
				minIdx, minAt = first+3, h[first+3].at
			}
		} else {
			for c := first + 1; c < n; c++ {
				if h[c].at < minAt {
					minIdx, minAt = c, h[c].at
				}
			}
		}
		if minAt >= moving.at {
			break
		}
		h[i] = h[minIdx]
		i = minIdx
	}
	h[i] = moving
}
