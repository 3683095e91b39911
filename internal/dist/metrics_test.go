package dist

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"sparsecut/internal/metrics"
)

// TestInstrumentedLossyRun is the telemetry acceptance check: a runtime on
// a lossy, delayed network with ClusterConfig.Metrics set must export
// nonzero exchange, abort, message, loss and delay counters, a
// populated latency histogram, and convergence gauges consistent with the
// runtime's own accessors — while preserving the sum invariant exactly as
// the uninstrumented runtime does. Run under -race this also proves the
// shard loops and the snapshot reader do not race on the telemetry plane.
func TestInstrumentedLossyRun(t *testing.T) {
	g, part, x0 := dumbbellCase(t)
	rule, err := NewSparseCutRule(part, part.CutEdges()[0], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cl := newTestRuntime(t, g, x0, rule, 4, ClusterConfig{
		TimeScale: 8 * time.Millisecond, Seed: 1,
		Drop: 0.2, Delay: 2 * time.Millisecond,
		LockTimeout: 20 * time.Millisecond,
		Metrics:     reg,
	})

	// Snapshot concurrently with the run — the live-monitoring use case.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				_ = reg.Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// How contended the lock protocol gets is decided by wall-clock
	// scheduling, so one leg occasionally quiesces with aborts only. Run is
	// resumable: keep adding legs (bounded) until an exchange commits and
	// the network has exercised both fault modes.
	var runErr error
	for leg := 0; leg < 10; leg++ {
		if runErr = cl.Run(context.Background(), 10); runErr != nil {
			break
		}
		if cl.Exchanges() > 0 && cl.Dropped() > 0 && cl.Delayed() > 0 {
			break
		}
	}
	done <- struct{}{}
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"dist.exchange.proposed",
		"dist.exchange.committed",
		"dist.exchange.aborted",
		"dist.msg.sent.lock",
		"dist.msg.sent.propose",
		"dist.msg.sent.commit",
		"dist.transport.dropped",
		"dist.transport.delayed",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero after a lossy run (snapshot: %+v)", name, snap.Counters)
		}
	}
	if got, want := snap.Counters["dist.exchange.committed"], cl.Exchanges(); got != want {
		t.Errorf("committed counter %d != Exchanges() %d", got, want)
	}
	if got, want := snap.Counters["dist.exchange.aborted"], cl.Aborted(); got != want {
		t.Errorf("aborted counter %d != Aborted() %d", got, want)
	}
	if got, want := snap.Counters["dist.transport.dropped"], cl.Dropped(); got != want {
		t.Errorf("dropped counter %d != Dropped() %d", got, want)
	}
	if got, want := snap.Counters["dist.transport.delayed"], cl.Delayed(); got != want {
		t.Errorf("delayed counter %d != Delayed() %d", got, want)
	}
	// The per-shard counters (perfbench's dist.shard_skew reads them) add
	// up to the runtime totals.
	var shardCommitted, shardAborted int64
	for i := 0; i < cl.Shards(); i++ {
		prefix := fmt.Sprintf("dist.shard.%02d.", i)
		shardCommitted += snap.Counters[prefix+"committed"]
		shardAborted += snap.Counters[prefix+"aborted"]
	}
	if got, want := shardCommitted, snap.Counters["dist.exchange.committed"]; got != want {
		t.Errorf("per-shard committed counters sum to %d, dist.exchange.committed is %d", got, want)
	}
	if got, want := shardAborted, snap.Counters["dist.exchange.aborted"]; got != want {
		t.Errorf("per-shard aborted counters sum to %d, dist.exchange.aborted is %d", got, want)
	}
	// Faults ride the mailbox path, so the per-shard depth gauges stay.
	if _, ok := snap.Gauges["dist.shard.00.mailbox_depth"]; !ok {
		t.Error("no mailbox depth gauge on a lossy run")
	}
	// Initiations split exactly into commits and aborts at quiescence.
	if p, c, a := snap.Counters["dist.exchange.proposed"], snap.Counters["dist.exchange.committed"], snap.Counters["dist.exchange.aborted"]; p != c+a {
		t.Errorf("proposed %d != committed %d + aborted %d", p, c, a)
	}
	// The designated edge is one of ~30 and its LOCKs face drops, delays
	// and busy responders, so a short run may legitimately consume zero
	// epoch ticks — the telemetry contract is equality with the rule's own
	// counter, whatever the count.
	if got, want := snap.Counters["dist.rule.ticks"], rule.Ticks(); got != want {
		t.Errorf("rule tick counter %d != Ticks() %d", got, want)
	}
	lat := snap.Histograms["dist.exchange.latency_ns"]
	if lat.Count != snap.Counters["dist.exchange.committed"] {
		t.Errorf("latency histogram has %d samples, want one per committed exchange (%d)",
			lat.Count, snap.Counters["dist.exchange.committed"])
	}
	if lat.Count > 0 && lat.Sum <= 0 {
		t.Error("latency histogram sum not positive")
	}

	// Telemetry must not perturb the protocol's sum invariant.
	if drift := math.Abs(sum(cl.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g with telemetry enabled", drift)
	}
}

// TestDisabledMetricsIsNilSafe runs the uninstrumented path (the default)
// and asserts nothing is recorded and nothing panics — the hot-path hooks
// must degrade to no-ops.
func TestDisabledMetricsIsNilSafe(t *testing.T) {
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
	if cl.met.sent[MsgLock] != nil || cl.met.latency != nil {
		t.Error("telemetry plane populated without a registry")
	}
}
