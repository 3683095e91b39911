package main

import (
	"bytes"
	"strings"
	"testing"

	"sparsecut/internal/scenario"
)

// A family without a planted partition runs the vanilla rule: its summary
// says so instead of dereferencing the missing partition, and rule A is
// refused with an error.
func TestBuildPartitionlessFamily(t *testing.T) {
	gs := scenario.GraphSpec{Family: "complete", N: 8}
	res, rule, err := build(scenario.Spec{Graph: gs, Algo: scenario.AlgoSpec{Name: "vanilla", EpochTicks: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	res.Describe(&b)
	want := "graph:      complete(n=8): 8 nodes, 28 edges\npartition:  (none planted)\n"
	if b.String() != want {
		t.Errorf("header %q, want %q", b.String(), want)
	}
	if rule.Name() != "vanilla-averaging" || len(res.X0) != 8 {
		t.Errorf("rule %s with %d initial values", rule.Name(), len(res.X0))
	}
	if _, _, err := build(scenario.Spec{Graph: gs, Algo: scenario.AlgoSpec{Name: "A", EpochTicks: 4}}); err == nil {
		t.Error("rule A built without a planted partition")
	}
}

// The default dumbbell keeps the rule it ran before the graph moved into
// the scenario registry: ec is the one cut edge, w = n1·n2/(n1+n2).
func TestBuildDumbbellRule(t *testing.T) {
	res, rule, err := build(scenario.Spec{
		Graph: scenario.GraphSpec{Family: "dumbbell", N: 16},
		Algo:  scenario.AlgoSpec{Name: "A", EpochTicks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rule.Name(); got != "sparse-cut(w=4, K=4)" {
		t.Errorf("rule %s", got)
	}
	var b bytes.Buffer
	res.Describe(&b)
	if !strings.HasPrefix(b.String(), "graph:      dumbbell(n1=8,n2=8,cut=1): 16 nodes, 57 edges\n") {
		t.Errorf("header %q", b.String())
	}
}
