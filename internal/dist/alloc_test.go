//go:build !race

package dist

import "testing"

// TestMachineExchangeAllocatesNothing pins the machine's steady state: a
// LOCK → PROPOSE → COMMIT exchange through Machine.Step with no flight
// recorder allocates nothing (AllocsPerRun's warm-up run creates the
// initiator's watermark map). The race detector's instrumentation
// allocates on its own, hence the build tag.
func TestMachineExchangeAllocatesNothing(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]
	he := halfEdgeTo(t, mc, 0, 1)
	var now int64
	committed := true
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		lock := mc.Step(a, StepIn{Kind: StepInitiate, He: he, NowNs: now}, nil)
		prop := mc.Step(b, StepIn{Kind: StepDeliver, Msg: lock.Send[0], NowNs: now}, nil)
		commit := mc.Step(a, StepIn{Kind: StepDeliver, Msg: prop.Send[0], NowNs: now}, nil)
		done := mc.Step(b, StepIn{Kind: StepDeliver, Msg: commit.Send[0], NowNs: now}, nil)
		committed = committed && commit.Applied && done.Committed
	})
	if !committed {
		t.Fatal("an exchange did not commit")
	}
	if allocs != 0 {
		t.Errorf("one exchange allocates %v times, want 0", allocs)
	}
}
