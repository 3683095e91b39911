package main

import (
	"testing"

	"sparsecut/internal/scenario"
)

// -graph dumbbell -n N checks an N-node dumbbell: two sides of N/2 nodes
// joined by one cut edge.
func TestBuildSpecDumbbellNodeCount(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		spec, err := buildSpec(scenario.GraphSpec{Family: "dumbbell", N: n}, "A", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.Graph.NumNodes(); got != n {
			t.Errorf("-n %d: %d nodes", n, got)
		}
		if got := len(spec.X0); got != n {
			t.Errorf("-n %d: %d initial values", n, got)
		}
	}
}
