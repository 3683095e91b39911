package sim

import (
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// globalScheduler superposes all edge clocks into one Poisson stream at the
// total rate; each event picks an edge with probability proportional to its
// rate. Uniform rates use a constant-time Lemire pick; heterogeneous rates
// use a Walker alias table — also O(1) per event, replacing the former
// per-event binary search (kept in the package tests as the reference the
// alias table is cross-checked against).
type globalScheduler struct {
	r         *rng.RNG
	totalRate float64
	invTotal  float64
	now       float64
	uniform   bool
	numEdges  int
	alias     *aliasTable // nil when uniform
}

func newGlobalScheduler(rates []float64, r *rng.RNG) *globalScheduler {
	s := &globalScheduler{r: r, numEdges: len(rates), uniform: true}
	for _, rate := range rates {
		if rate != rates[0] {
			s.uniform = false
			break
		}
	}
	if s.uniform {
		s.totalRate = rates[0] * float64(len(rates))
	} else {
		s.alias = newAliasTable(rates)
		for _, rate := range rates {
			s.totalRate += rate
		}
	}
	s.invTotal = 1 / s.totalRate
	return s
}

func (s *globalScheduler) next() (graph.EdgeID, float64) {
	s.now += s.r.ExpUnit() * s.invTotal
	if s.uniform {
		return graph.EdgeID(s.r.Intn(s.numEdges)), s.now
	}
	return graph.EdgeID(s.alias.pick(s.r)), s.now
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
