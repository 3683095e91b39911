package dist_test

// This file is an external test (package dist_test) on purpose: it pulls
// in internal/check, which itself imports internal/dist, so the
// comparison across both drivers of the protocol machine can only live
// outside the dist package proper.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"sparsecut/internal/check"
	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
)

// cleanCommitSignatures stitches a dump and collects the event-kind
// signatures of its "clean" committed spans: exactly three hops (LOCK,
// PROPOSE, COMMIT), no retransmissions, no losses — the undisturbed
// exchange shape. The signature is the span's sorted event-kind multiset.
func cleanCommitSignatures(d *flight.Dump) map[string]int {
	sigs := map[string]int{}
	for _, sp := range flight.Stitch(d).Spans {
		if sp.Outcome != flight.OutcomeCommitted || sp.Hops != 3 || sp.Resends != 0 || sp.Drops != 0 || sp.Dups != 0 {
			continue
		}
		kinds := make([]int, 0, len(sp.Events))
		for _, e := range sp.Events {
			kinds = append(kinds, int(e.Kind))
		}
		sort.Ints(kinds)
		sigs[fmt.Sprint(kinds)]++
	}
	return sigs
}

// TestFlightEquivalenceAcrossDrivers is the cross-driver flight proof:
// both drivers of the protocol machine — the sharded runtime and the model
// checker's trace replayer — must emit the same span structure for an
// undisturbed committed exchange. The checker side uses a handcrafted
// four-action trace (initiate, deliver LOCK, deliver PROPOSE, deliver
// COMMIT) whose ten span events are totally causally ordered, so its
// single span is the canonical committed-exchange signature; every clean
// committed span captured live from the runtime must match it exactly.
func TestFlightEquivalenceAcrossDrivers(t *testing.T) {
	// Canonical signature: the checker's deterministic virtual-time replay.
	tr := &check.Trace{
		Version: 1,
		Graph:   check.GraphSpec{Nodes: 3, EdgeU: []int{0, 1, 2}, EdgeV: []int{1, 2, 0}},
		X0:      []float64{1, 0, 0},
		Rule:    check.Vanilla(),
		Actions: []check.Action{
			{Op: check.OpInitiate, Node: 0, Edge: 0},
			{Op: check.OpDeliver, Msg: 0}, // the LOCK
			{Op: check.OpDeliver, Msg: 0}, // the PROPOSE
			{Op: check.OpDeliver, Msg: 0}, // the COMMIT
		},
	}
	recCheck := flight.New(3, 256)
	v, err := check.ReplayFlight(tr, recCheck)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("handcrafted trace violated an invariant: %v", v)
	}
	want := cleanCommitSignatures(recCheck.Snapshot())
	if len(want) != 1 {
		t.Fatalf("checker replay produced %d clean committed signatures, want exactly 1: %v", len(want), want)
	}
	var canonical string
	for s := range want {
		canonical = s
	}

	g, _, err := graph.Dumbbell(6, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, g.NumNodes())
	for i := range x0 {
		x0[i] = float64(i)
	}

	recSh := flight.New(g.NumNodes(), 1<<14)
	rt, err := dist.NewShardRuntime(g, x0, dist.NewVanillaRule(), dist.ShardRuntimeConfig{
		ClusterConfig: dist.ClusterConfig{TimeScale: 4 * time.Millisecond, Seed: 21, Flight: recSh},
		Shards:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 8); err != nil {
		t.Fatal(err)
	}

	sigs := cleanCommitSignatures(recSh.Snapshot())
	if len(sigs) == 0 {
		t.Error("shard runtime capture has no clean committed spans; cross-driver comparison needs traffic")
	}
	for sig, n := range sigs {
		if sig != canonical {
			t.Errorf("shard runtime emitted %d clean committed spans with signature %s, want the checker's %s",
				n, sig, canonical)
		}
	}

	// The runtime's sum is as exactly conserved as the checker's replay.
	if drift := math.Abs(sumOf(rt.Values()) - sumOf(x0)); drift > 1e-9 {
		t.Errorf("shard runtime sum drifted by %g", drift)
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
