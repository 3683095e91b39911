package sim

import (
	"fmt"
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// rateClock is the superposed edge clock both engines sample: all edge
// clocks as one Poisson stream at the total rate, each event picking an
// edge with probability proportional to its rate. Uniform rates use a
// constant-time Lemire pick; heterogeneous rates use a Walker alias table —
// also O(1) per event, replacing the former per-event binary search (kept
// in the package tests as the reference the alias table is cross-checked
// against).
type rateClock struct {
	uniform  bool
	numEdges int
	alias    *aliasTable // nil when uniform
	invTotal float64     // mean gap between events
}

// newRateClock validates per-edge rates for g (nil means rate 1 on every
// edge, as in the paper) and builds the clock.
func newRateClock(g *graph.Graph, rates []float64) (rateClock, error) {
	if rates == nil {
		rates = make([]float64, g.NumEdges())
		for i := range rates {
			rates[i] = 1
		}
	}
	if len(rates) != g.NumEdges() {
		return rateClock{}, fmt.Errorf("sim: %d rates for %d edges", len(rates), g.NumEdges())
	}
	for i, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return rateClock{}, fmt.Errorf("sim: invalid rate %v for edge %d", r, i)
		}
	}
	c := rateClock{numEdges: len(rates), uniform: true}
	for _, rate := range rates {
		if rate != rates[0] {
			c.uniform = false
			break
		}
	}
	total := 0.0
	if c.uniform {
		total = rates[0] * float64(len(rates))
	} else {
		c.alias = newAliasTable(rates)
		for _, rate := range rates {
			total += rate
		}
	}
	c.invTotal = 1 / total
	return c, nil
}

// fillPicks samples one ticking edge per event into dst from r —
// rng.FillIntn for the uniform-rate case, the alias table otherwise.
func (c *rateClock) fillPicks(r *rng.RNG, dst []graph.EdgeID) {
	if c.uniform {
		rng.FillIntn(r, dst, c.numEdges)
		return
	}
	al := c.alias
	for k := range dst {
		dst[k] = graph.EdgeID(al.pick(r))
	}
}

// globalScheduler is the per-event engine's rate clock with its stream
// and its simulated time.
type globalScheduler struct {
	rateClock
	r   *rng.RNG
	now float64
}

// aliasTable is a Walker/Vose alias table over a fixed weight vector:
// construction is O(n), each pick is O(1) — one uniform slot, one coin.
type aliasTable struct {
	prob  []float64 // acceptance threshold of the home slot, in [0, 1]
	alias []int32   // donor index taken when the coin exceeds prob
}

// newAliasTable builds the table by Vose's stable two-stack method. Weights
// must be positive (the engines validate rates before reaching here).
func newAliasTable(weights []float64) *aliasTable {
	n := len(weights)
	t := &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	// Scale each weight so the average bucket holds exactly 1.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are exactly 1 up to float rounding.
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// pick returns an index distributed proportionally to the table's weights.
func (t *aliasTable) pick(r *rng.RNG) int32 {
	i := int32(r.Intn(len(t.prob)))
	if r.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}
