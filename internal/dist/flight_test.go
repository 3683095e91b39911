package dist

import (
	"context"
	"math"
	"testing"
	"time"

	"sparsecut/internal/flight"
)

// TestFlightMsgKindsMatch pins the wire compatibility the flight package
// relies on: its message-kind byte values mirror MsgKind one-for-one
// (flight is dependency-free and cannot import dist to share the consts).
func TestFlightMsgKindsMatch(t *testing.T) {
	pairs := []struct {
		name string
		dist MsgKind
		fl   uint8
	}{
		{"lock", MsgLock, flight.MsgLock},
		{"propose", MsgPropose, flight.MsgPropose},
		{"nack", MsgNack, flight.MsgNack},
		{"commit", MsgCommit, flight.MsgCommit},
	}
	for _, p := range pairs {
		if uint8(p.dist) != p.fl {
			t.Errorf("%s: dist.MsgKind %d != flight value %d", p.name, p.dist, p.fl)
		}
	}
}

// TestMessageInitiator pins the causal-key derivation from Kind/Re lineage.
func TestMessageInitiator(t *testing.T) {
	cases := []struct {
		m    Message
		want int
	}{
		{Message{Kind: MsgLock, From: 3, To: 7}, 3},
		{Message{Kind: MsgCommit, From: 3, To: 7}, 3},
		{Message{Kind: MsgPropose, From: 7, To: 3}, 3},
		{Message{Kind: MsgNack, Re: MsgLock, From: 7, To: 3}, 3},
		{Message{Kind: MsgNack, Re: MsgPropose, From: 3, To: 7}, 3},
		// A NACK not answering a LOCK is treated as refusing a proposal
		// (every wire NACK answers one of the two).
		{Message{Kind: MsgNack, From: 1, To: 2}, 1},
		{Message{Kind: 99}, -1}, // unknown kind has no lineage
	}
	for _, c := range cases {
		if got := c.m.Initiator(); got != c.want {
			t.Errorf("%s re=%d %d->%d: initiator %d, want %d", c.m.Kind, c.m.Re, c.m.From, c.m.To, got, c.want)
		}
	}
}

// TestFlightInstrumentedRun is the flight plane's acceptance check: on a
// healthy run, stitching the capture must reconstruct exactly the
// runtime's own ledger — one committed span per committed exchange, one
// aborted span per abort — with the full LOCK→PROPOSE→COMMIT phase
// structure on every committed span, while preserving the sum invariant.
// Under -race this also proves the shard loops and a concurrent snapshot
// reader do not race on the rings.
func TestFlightInstrumentedRun(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rec := flight.New(g.NumNodes(), 1<<14)
	cl := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{
		TimeScale: 4 * time.Millisecond, Seed: 3, Flight: rec,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				_ = rec.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	runErr := cl.Run(context.Background(), 10)
	done <- struct{}{}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if cl.Exchanges() == 0 {
		t.Fatal("no exchanges committed")
	}

	d := rec.Snapshot()
	if d.Overwritten != 0 {
		t.Fatalf("rings wrapped (%d overwritten); grow the test capacity", d.Overwritten)
	}
	set := flight.Stitch(d)

	var committed, aborted int
	for i := range set.Spans {
		sp := &set.Spans[i]
		switch sp.Outcome {
		case flight.OutcomeCommitted:
			committed++
			if sp.LockNs < 0 || sp.HoldNs < 0 || sp.ApplyNs < 0 || sp.EndNs < 0 {
				t.Errorf("committed span %d#%d missing a phase: lock=%d hold=%d apply=%d end=%d",
					sp.Init, sp.Seq, sp.LockNs, sp.HoldNs, sp.ApplyNs, sp.EndNs)
			}
			// LOCK + PROPOSE + COMMIT, plus a PROPOSE/COMMIT pair per
			// retransmission (a slow initiator makes the responder's lease
			// fire; the duplicate proposal is answered with a re-COMMIT).
			if sp.Hops != 3+2*sp.Resends {
				t.Errorf("committed span %d#%d has %d hops with %d resends, want %d",
					sp.Init, sp.Seq, sp.Hops, sp.Resends, 3+2*sp.Resends)
			}
			if sp.Latency() <= 0 {
				t.Errorf("committed span %d#%d has latency %d", sp.Init, sp.Seq, sp.Latency())
			}
			if sp.Resp == flight.NoNode || sp.Edge == flight.NoNode {
				t.Errorf("committed span %d#%d lacks responder/edge: %d/%d", sp.Init, sp.Seq, sp.Resp, sp.Edge)
			}
		case flight.OutcomeAborted:
			aborted++
			// A healthy transport still aborts via busy responders, and —
			// under scheduling jitter — the occasional lock timeout.
			if sp.Reason != "nack-busy" && sp.Reason != "timeout" {
				t.Errorf("abort span %d#%d reason %q, want nack-busy or timeout on a crash-free run", sp.Init, sp.Seq, sp.Reason)
			}
		default:
			t.Errorf("span %d#%d unresolved after a drained run", sp.Init, sp.Seq)
		}
	}
	if int64(committed) != cl.Exchanges() {
		t.Errorf("stitched %d committed spans, runtime counted %d", committed, cl.Exchanges())
	}
	if int64(aborted) != cl.Aborted() {
		t.Errorf("stitched %d aborted spans, runtime counted %d", aborted, cl.Aborted())
	}
	if drift := math.Abs(sum(cl.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g with the flight recorder attached", drift)
	}
}

// TestFlightLossyCrashRun drives the recorder through the live runtime's
// fault paths — message loss, congestion-free delays, timeouts, resends —
// and asserts the capture names them: net-drop records with the loss
// reason, and a ledger that still matches the runtime's counters. The
// crash and recover records are pinned on a deterministic replay
// (internal/check's TestReplayFlightCrashRecords).
func TestFlightLossyCrashRun(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rec := flight.New(g.NumNodes(), 1<<15)
	cl := newTestRuntime(t, g, x0, NewVanillaRule(), 4, ClusterConfig{
		TimeScale: 8 * time.Millisecond, Seed: 5,
		Drop: 0.2, Delay: 2 * time.Millisecond,
		LockTimeout: 20 * time.Millisecond,
		Flight:      rec,
	})
	// Loss and scheduling decide what a single leg exercises; keep adding
	// bounded legs until an exchange commits and a drop was captured.
	for leg := 0; leg < 10; leg++ {
		if err := cl.Run(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		if cl.Exchanges() > 0 && cl.Dropped() > 0 {
			break
		}
	}
	if cl.Exchanges() == 0 || cl.Dropped() == 0 {
		t.Fatalf("run exercised too little: %d exchanges, %d drops", cl.Exchanges(), cl.Dropped())
	}

	d := rec.Snapshot()
	var drops int64
	for _, e := range d.Events {
		if e.Kind == flight.EvNetDrop && e.Flags == flight.ReasonLoss {
			drops++
		}
	}
	if d.Overwritten == 0 && drops != cl.Dropped() {
		t.Errorf("captured %d loss drops, runtime counted %d", drops, cl.Dropped())
	}

	set := flight.Stitch(d)
	if d.Overwritten == 0 {
		var committed int64
		for i := range set.Spans {
			if set.Spans[i].Outcome == flight.OutcomeCommitted {
				committed++
			}
		}
		if committed != cl.Exchanges() {
			t.Errorf("stitched %d committed spans, runtime counted %d", committed, cl.Exchanges())
		}
	}
	if drift := math.Abs(sum(cl.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across a faulted instrumented run", drift)
	}
}

// TestDisabledFlightIsNilSafe runs the default, recorder-less path and
// asserts the flight plane stays dark — the same nil contract as the
// metrics registry.
func TestDisabledFlightIsNilSafe(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	cl := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{
		TimeScale: 2 * time.Millisecond, Seed: 1,
	})
	if err := cl.Run(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if cl.Exchanges() == 0 {
		t.Error("no exchanges committed")
	}
	if cl.rec != nil {
		t.Error("flight recorder populated without ClusterConfig.Flight")
	}
}
