package dist

import (
	"testing"

	"sparsecut/internal/graph"
)

// The remaining tests drive the machine directly — single-threaded, no
// transport, virtual time — exactly the way the model checker does.

func testMachine(t *testing.T) (*Machine, []*NodeState) {
	t.Helper()
	g, err := graph.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	mc := &Machine{G: g, Rule: NewVanillaRule(), Epoch: 1, LockTimeoutNs: 100, ResendEveryNs: 40}
	sts := []*NodeState{NewNodeState(0, 1), NewNodeState(1, 5), NewNodeState(2, 0)}
	return mc, sts
}

func halfEdgeTo(t *testing.T, mc *Machine, from, to int) graph.HalfEdge {
	t.Helper()
	for _, he := range mc.G.Neighbors(graph.NodeID(from)) {
		if int(he.Peer) == to {
			return he
		}
	}
	t.Fatalf("no edge %d-%d", from, to)
	return graph.HalfEdge{}
}

func TestMachineCommitFlow(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	out := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 10)
	if !out.Proposed || out.Send[0].Kind != MsgLock {
		t.Fatalf("initiate: %+v", out)
	}
	lock := out.Send[0]
	if lock.Epoch != 1 || lock.X != 1 || a.Lock.Role != RoleInitiator || a.Lock.DueNs != 110 {
		t.Fatalf("lock %+v slot %+v", lock, a.Lock)
	}

	out = mc.Deliver(b, lock, 20, false)
	if !out.PendCreated || out.Send[0].Kind != MsgPropose {
		t.Fatalf("lock delivery: %+v", out)
	}
	prop := out.Send[0]
	if prop.X != 2 { // vanilla delta (5-1)/2
		t.Errorf("proposed delta %g, want 2", prop.X)
	}
	if b.Lock.Role != RoleResponder || b.Lock.DueNs != 60 || mc.HeldProposal(b) != prop {
		t.Fatalf("slot %+v", b.Lock)
	}

	out = mc.Deliver(a, prop, 30, false)
	if !out.Applied || out.LatencyNs != 20 || out.Send[0].Kind != MsgCommit {
		t.Fatalf("propose delivery: %+v", out)
	}
	if a.X != 3 || a.Locked() || a.LastApplied[1] != 1 {
		t.Fatalf("initiator state after apply: %+v", a)
	}

	out = mc.Deliver(b, out.Send[0], 40, false)
	if !out.Committed || out.Send[0].Kind != 0 || b.X != 3 || b.Locked() {
		t.Fatalf("commit delivery: %+v, responder %+v", out, b)
	}
	if s := a.X + b.X + sts[2].X; s != 6 {
		t.Errorf("sum %g, want 6", s)
	}
}

func TestMachineAbortAndDuplicatePaths(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	// Busy responder NACKs; draining responder NACKs.
	lock := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Send[0]
	mc.Deliver(b, lock, 0, false)
	lock2 := mc.Initiate(sts[2], halfEdgeTo(t, mc, 2, 1), 0).Send[0]
	if out := mc.Deliver(b, lock2, 0, false); out.Send[0].Kind != MsgNack {
		t.Fatalf("busy responder: %+v", out)
	}

	// Timeout aborts the initiation; the late proposal is then refused and
	// the responder rolls back with no value change anywhere.
	if out := mc.TimeoutAwait(a); !out.Aborted || out.Send[0].Kind != 0 || a.Locked() {
		t.Fatalf("timeout: %+v", out)
	}
	prop := mc.HeldProposal(b)
	out := mc.Deliver(a, prop, 0, false)
	if out.Applied || out.Send[0].Kind != MsgNack {
		t.Fatalf("stale proposal: %+v", out)
	}
	if out := mc.Deliver(b, out.Send[0], 0, false); !out.PendDropped || out.Send[0].Kind != 0 || b.Locked() || b.X != 5 {
		t.Fatalf("rollback: %+v responder %+v", out, b)
	}

	// Duplicate proposal after a successful apply is re-committed without
	// reapplying.
	lock = mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Send[0]
	prop = mc.Deliver(b, lock, 0, false).Send[0]
	mc.Deliver(a, prop, 0, false)
	xa := a.X
	out = mc.Deliver(a, prop, 0, false) // retransmitted duplicate
	if a.X != xa || out.Send[0].Kind != MsgCommit || out.Applied {
		t.Fatalf("duplicate proposal: %+v", out)
	}

	// Stale-epoch messages are dropped outright.
	stale := lock
	stale.Epoch = 99
	if out := mc.Deliver(b, stale, 0, false); out.Send[0].Kind != 0 || out.PendCreated {
		t.Fatalf("stale epoch: %+v", out)
	}
}

func TestMachineCrashRecoverSemantics(t *testing.T) {
	mc, sts := testMachine(t)
	a, b := sts[0], sts[1]

	// Crash aborts a volatile initiation.
	mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0)
	if out := mc.Crash(a); !out.Aborted || out.Send[0].Kind != 0 || a.Locked() {
		t.Fatalf("crash with await: %+v", out)
	}

	// A held proposal survives a crash and retransmits on recovery.
	lock := mc.Initiate(a, halfEdgeTo(t, mc, 0, 1), 0).Send[0]
	prop := mc.Deliver(b, lock, 0, false).Send[0]
	if out := mc.Crash(b); out.Aborted || b.Lock.Role != RoleResponder {
		t.Fatalf("crash with pend: %+v state %+v", out, b)
	}
	if out := mc.Recover(b, 500); out.Send[0].Kind != 0 || b.Lock.DueNs != 500 {
		t.Fatalf("recovery did not make the held proposal due: %+v", b.Lock)
	}
	// The retransmission, rebuilt from the lock slot, is the PROPOSE the
	// LOCK's delivery sent, field for field; the lease renews.
	if out := mc.Resend(b, 500); out.Send[0] != prop || b.Lock.DueNs != 540 {
		t.Fatalf("post-recovery resend: %+v, want %+v; slot %+v", out, prop, b.Lock)
	}
}
