package check

import (
	"fmt"

	"sparsecut/internal/rng"
)

// Exhaustive explores every schedule of length up to opt.MaxDepth by DFS
// with state-hash deduplication, stopping at the first invariant violation
// or when the opt.MaxStates budget is spent (Result.Truncated). With the
// budget untouched and no counterexample, every state reachable within the
// configured bounds satisfies every invariant.
//
// The state hash packs node ids into 8 bits (see msgKey), so two distinct
// worlds of a larger graph could hash alike and one be pruned unexplored;
// Exhaustive rejects graphs of more than maxHashNodes nodes.
func Exhaustive(spec Spec, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	w, err := newWorld(spec, opt)
	if err != nil {
		return nil, err
	}
	if n := spec.Graph.NumNodes(); n > maxHashNodes {
		return nil, fmt.Errorf("check: exhaustive search hashes at most %d nodes, spec has %d", maxHashNodes, n)
	}
	e := &explorer{spec: spec, opt: opt, res: &Result{}, visited: make(map[uint64]int)}
	e.dfs(w, 0)
	return e.res, nil
}

type explorer struct {
	spec Spec
	opt  Options
	res  *Result
	// visited maps a state hash to the largest remaining depth it has been
	// explored with: a revisit with no more depth to spend is a safe cut,
	// a revisit with more depth re-explores (deeper schedules may exist
	// below it).
	visited map[uint64]int
	path    []Action
}

// dfs explores from w; false aborts the whole search (violation found or
// state budget spent).
func (e *explorer) dfs(w *world, depth int) bool {
	rem := e.opt.MaxDepth - depth
	h := w.hash()
	if prev, ok := e.visited[h]; ok && prev >= rem {
		e.res.Deduped++
		return true
	}
	e.visited[h] = rem
	e.res.StatesExplored++
	if depth > e.res.DeepestDepth {
		e.res.DeepestDepth = depth
	}
	if e.res.StatesExplored >= e.opt.MaxStates {
		e.res.Truncated = true
		return false
	}
	if rem <= 0 {
		return true
	}
	for _, a := range w.enabled() {
		w2 := w.clone()
		e.res.Transitions++
		err := w2.apply(a)
		e.path = append(e.path, a)
		if err != nil {
			if v, ok := err.(*Violation); ok {
				e.res.Counterexample = newTrace(e.spec, e.opt, e.path, v)
				e.path = e.path[:len(e.path)-1]
				return false
			}
			// enabled() never yields inapplicable actions; tolerate anyway.
			e.path = e.path[:len(e.path)-1]
			continue
		}
		ok := e.dfs(w2, depth+1)
		e.path = e.path[:len(e.path)-1]
		if !ok {
			return false
		}
	}
	return true
}

// RandomWalk runs `walks` independent seeded random schedules of length up
// to opt.MaxDepth, stopping at the first violation. It scales to systems
// whose bounded state space is too large for Exhaustive; the price is that
// a clean result is evidence, not proof.
func RandomWalk(spec Spec, opt Options, seed uint64, walks int) (*Result, error) {
	opt = opt.withDefaults()
	if walks <= 0 {
		walks = 1
	}
	r := rng.New(seed)
	res := &Result{}
	for k := 0; k < walks; k++ {
		w, err := newWorld(spec, opt)
		if err != nil {
			return nil, err
		}
		var path []Action
		for depth := 0; depth < opt.MaxDepth; depth++ {
			acts := w.enabled()
			if len(acts) == 0 {
				break
			}
			a := acts[r.Intn(len(acts))]
			path = append(path, a)
			res.Transitions++
			res.StatesExplored++
			if depth+1 > res.DeepestDepth {
				res.DeepestDepth = depth + 1
			}
			if err := w.apply(a); err != nil {
				if v, ok := err.(*Violation); ok {
					res.Counterexample = newTrace(spec, opt, path, v)
					return res, nil
				}
				return nil, err
			}
		}
		res.Walks++
	}
	return res, nil
}
