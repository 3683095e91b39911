package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsecut/internal/flight"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// TestShardLockstepEquivalence is the divergence test that licenses the
// live runtime as a driver of the protocol: the shard loops record every
// protocol event they feed the pure machine via the runtime tap, and
// replaying that stream through fresh NodeStates must reproduce
// byte-identical StepOuts and exactly the runtime's final values. Any
// state the shard loop mutated outside the machine, or any hidden input
// the machine read, would diverge here. On top of the replay this test
// asserts two properties:
//
//   - no stale commits, by provenance: at every replayed commit the
//     initiator's replayed state must already have applied that exact
//     (initiator, seq) — the tap order respects causality (a send is
//     tapped before its delivery can be), so the check is sound;
//   - flight equivalence: re-recording the replayed stream through the
//     step→record mapping Machine.Step uses must stitch into the same span
//     set as the live shard capture, span by span (the sharded loops add
//     no records and lose none relative to that mapping).
//
// The replay calls the per-kind methods through its own switch, not
// Machine.Step, so it is an independent reference for Step's dispatch.
// This test runs 3 shards, so most exchanges stay inside one loop.
func TestShardLockstepEquivalence(t *testing.T) { testLockstep(t, 3) }

// TestLockstepMachineEquivalence is the same check with one node per
// shard: every protocol message crosses a shard mailbox, and concurrent
// steps of neighbouring nodes come from different goroutines.
func TestLockstepMachineEquivalence(t *testing.T) { testLockstep(t, perNode) }

// perNode asks for more shard loops than dumbbellCase has nodes, which the
// runtime clamps to one node per shard.
const perNode = 1 << 10

func testLockstep(t *testing.T, shards int) {
	t.Run("healthy", func(t *testing.T) {
		g, _, x0 := dumbbellCase(t)
		rec := flight.New(g.NumNodes(), 1<<14)
		rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
			ClusterConfig: ClusterConfig{
				TimeScale: 4 * time.Millisecond, Seed: 11, Flight: rec,
			},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var events []nodeEvent
		rt.tap = func(ev nodeEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
		if err := rt.Run(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		if rt.Exchanges() == 0 {
			t.Fatal("no exchanges committed; lockstep test needs traffic")
		}

		// Replay: fresh states, same machine parameters, recorded
		// inputs; re-record each step through Step's flight mapping.
		mc := Machine{
			G:             g,
			Rule:          NewVanillaRule(),
			Epoch:         rt.epoch,
			LockTimeoutNs: rt.lockTimeout.Nanoseconds(),
			ResendEveryNs: rt.resendEvery.Nanoseconds(),
		}
		rec2 := flight.New(g.NumNodes(), 1<<14)
		states := make([]*NodeState, g.NumNodes())
		for i := range states {
			states[i] = NewNodeState(i, x0[i])
		}
		for k, ev := range events {
			st, in := states[ev.node], ev.in
			pre := st.Lock
			var out StepOut
			switch in.Kind {
			case StepDeliver:
				out = mc.Deliver(st, in.Msg, in.NowNs, in.Draining)
			case StepInitiate:
				out = mc.Initiate(st, in.He, in.NowNs)
			case StepTimeout:
				out = mc.TimeoutAwait(st)
			case StepResend:
				out = mc.Resend(st, in.NowNs)
			}
			if !reflect.DeepEqual(out, ev.out) {
				t.Fatalf("event %d (node %d, kind %d): replayed StepOut %+v diverged from live %+v",
					k, ev.node, in.Kind, out, ev.out)
			}
			if out.Committed {
				// Ghost provenance: the held proposal this commit
				// resolved names the initiator and seq; that initiator's
				// watermark must be exactly that seq (below it, the
				// proposal was never applied; proposals to one
				// initiator are serial, so it cannot be above).
				if pre.Role != RoleResponder || states[pre.Peer].LastApplied[ev.node] != pre.Seq {
					t.Fatalf("event %d: node %d committed seq %d before initiator %d applied it (stale commit)",
						k, ev.node, pre.Seq, pre.Peer)
				}
			}
			recordStep(rec2, g, ev.node, in, out, pre)
			if m := out.Send[0]; m.Kind != 0 {
				FlightEmitter{Rec: rec2}.Send(ev.node, m, in.NowNs)
			}
		}
		got := rt.Values()
		for i, st := range states {
			if st.X != got[i] {
				t.Errorf("node %d: replayed value %v != runtime value %v", i, st.X, got[i])
			}
		}

		compareSpanSets(t, flight.Stitch(rec.Snapshot()), flight.Stitch(rec2.Snapshot()))
		t.Logf("replayed %d events across %d nodes on %d shards, %d exchanges",
			len(events), g.NumNodes(), rt.Shards(), rt.Exchanges())
	})
}

// compareSpanSets asserts that live and replayed flight captures stitch
// into the same spans: same (Init, Seq) keys, and per span the same
// responder, edge, outcome and protocol-event multiset. Multisets, not
// sequences: concurrent records from different shards may reach the
// recorder in either order. Network-layer records (EvNetDrop/EvNetDup) are
// excluded — they are emitted by the send and mailbox paths, which the
// protocol-step tap does not see.
func compareSpanSets(t *testing.T, live, replayed *flight.SpanSet) {
	t.Helper()
	sig := func(set *flight.SpanSet) map[string]string {
		m := make(map[string]string, len(set.Spans))
		for _, sp := range set.Spans {
			kinds := make([]int, 0, len(sp.Events))
			for _, e := range sp.Events {
				if e.Kind == flight.EvNetDrop || e.Kind == flight.EvNetDup {
					continue
				}
				kinds = append(kinds, int(e.Kind))
			}
			sort.Ints(kinds)
			m[fmt.Sprintf("%d/%d", sp.Init, sp.Seq)] =
				fmt.Sprintf("resp=%d edge=%d outcome=%s kinds=%v", sp.Resp, sp.Edge, sp.Outcome, kinds)
		}
		return m
	}
	ls, rs := sig(live), sig(replayed)
	for k, v := range ls {
		if rv, ok := rs[k]; !ok {
			t.Errorf("span %s in live capture but not in replay", k)
		} else if v != rv {
			t.Errorf("span %s diverged:\n  live:   %s\n  replay: %s", k, v, rv)
		}
	}
	for k := range rs {
		if _, ok := ls[k]; !ok {
			t.Errorf("span %s in replay but not in live capture", k)
		}
	}
	looseKinds := func(set *flight.SpanSet) map[flight.EventKind]int {
		m := map[flight.EventKind]int{}
		for _, r := range set.Loose {
			if r.Kind == flight.EvNetDrop || r.Kind == flight.EvNetDup {
				continue
			}
			m[r.Kind]++
		}
		return m
	}
	if l, r := looseKinds(live), looseKinds(replayed); !reflect.DeepEqual(l, r) {
		t.Errorf("loose records diverged: live %v, replay %v", l, r)
	}
}

// TestShardSumConservedHostileTransport drives the sharded runtime over a
// hostile network — 25% Bernoulli loss, 2ms random delays — and asserts
// the protocol's core promise end to end: exact sum conservation and a
// balanced exchange ledger at quiescence.
func TestShardSumConservedHostileTransport(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{
			TimeScale: 4 * time.Millisecond, Seed: 1,
			Drop: 0.25, Delay: 2 * time.Millisecond,
			LockTimeout: 10 * time.Millisecond,
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges committed")
	}
	if rt.Aborted() == 0 {
		t.Error("25% drop with 2ms delays produced no aborts")
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g under loss and delay", drift)
	}
	assertLedger(t, rt)
}

// assertLedger checks the exchange ledger every drained run must
// balance: every initiation resolved exactly once (applied or
// aborted), and every applied initiator half was committed by its
// responder.
func assertLedger(t *testing.T, rt *ShardRuntime) {
	t.Helper()
	if rt.Proposed() != rt.Applied()+rt.Aborted() {
		t.Errorf("ledger: proposed %d != applied %d + aborted %d",
			rt.Proposed(), rt.Applied(), rt.Aborted())
	}
	if rt.Applied() != rt.Exchanges() {
		t.Errorf("ledger: applied %d != committed %d after settle",
			rt.Applied(), rt.Exchanges())
	}
}

// TestShardDirectPathConverges is the fault-free sanity run: traffic flows shard-to-shard through the batched mailboxes, the
// ledger balances, and the exchange rule actually averages.
func TestShardDirectPathConverges(t *testing.T) {
	g := graph.Cycle(64)
	x0 := make([]float64, g.NumNodes())
	for i := range x0 {
		x0[i] = float64(i % 2 * 10)
	}
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 5},
		Shards:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var0 := rt.Variance()
	if err := rt.Run(context.Background(), 15); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() == 0 {
		t.Fatal("no exchanges on the direct path")
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g", drift)
	}
	if v := rt.Variance(); v >= var0 {
		t.Errorf("variance did not decrease: %g -> %g", var0, v)
	}
	if rt.Congested() != 0 {
		t.Errorf("unexpected mailbox congestion: %d drops", rt.Congested())
	}
	assertLedger(t, rt)
}

// TestShardMailboxCongestion overflows tiny shard mailboxes: the full
// mailboxes must drop as congestion loss — counted, exported and recorded
// — while the protocol still conserves the sum exactly and balances the
// ledger.
func TestShardMailboxCongestion(t *testing.T) {
	// Four shards split both cliques, so a wheel tick's burst of clock
	// fires sends several LOCKs into each peer shard's one-slot mailbox.
	g, _, err := graph.Dumbbell(32, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.UniformRandom(rng.New(3), g.NumNodes())
	reg := metrics.NewRegistry()
	rec := flight.New(g.NumNodes(), 1<<12)
	rt, err := NewShardRuntime(g, x0, NewVanillaRule(), ShardRuntimeConfig{
		ClusterConfig: ClusterConfig{TimeScale: 2 * time.Millisecond, Seed: 2, Metrics: reg, Flight: rec},
		Shards:        4,
		MailboxCap:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if rt.Congested() == 0 {
		t.Fatal("one-message mailboxes never overflowed")
	}
	if got := reg.Snapshot().Counters["dist.transport.congested"]; got != rt.Congested() {
		t.Errorf("congested counter %d != Congested() %d", got, rt.Congested())
	}
	records := 0
	for _, e := range rec.Snapshot().Events {
		if e.Kind == flight.EvNetDrop && e.Flags == flight.ReasonCongestion {
			records++
		}
	}
	if records == 0 {
		t.Error("no congestion drops in the flight capture")
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g under congestion", drift)
	}
	assertLedger(t, rt)
}

// sendSequence sends n LOCKs from node 0 to node 1 through shard 0's send
// path, without running any shard loop, and returns the sequence numbers
// that reach the mailbox.
func sendSequence(t *testing.T, cfg ClusterConfig, n int) (*ShardRuntime, []uint64) {
	t.Helper()
	rt, err := NewShardRuntime(graph.Cycle(8), make([]float64, 8), VanillaRule{}, ShardRuntimeConfig{
		ClusterConfig: cfg, Shards: 2, MailboxCap: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rt.shards[0]
	for i := 0; i < n; i++ {
		s.send(Message{Kind: MsgLock, From: 0, To: 1, Seq: uint64(i)}, 0)
	}
	var got []uint64
	for _, m := range s.inbox.drainSwap(nil) {
		got = append(got, m.Seq)
	}
	return rt, got
}

// TestDropTransportDeterministicGivenSeed pins the loss draws of
// ClusterConfig.Drop: the same seed drops the same messages of a fixed
// send sequence, and a different seed a different set.
func TestDropTransportDeterministicGivenSeed(t *testing.T) {
	const n = 500
	const rate = 0.2
	run := func(seed uint64) []uint64 {
		_, got := sendSequence(t, ClusterConfig{Seed: seed, Drop: rate}, n)
		return got
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed delivered different messages:\n%v\n%v", a, b)
	}
	if kept := float64(len(a)) / n; kept < 0.7 || kept > 0.9 {
		t.Errorf("kept fraction %.3f far from 1-rate=%.1f", kept, 1-rate)
	}
	if reflect.DeepEqual(a, run(43)) {
		t.Error("different seeds produced identical drop patterns over 500 messages")
	}
}

// TestDropTransportCountsDrops pins the loss accounting: every sent
// message is either dropped or delivered, and each loss is counted by
// Dropped and dist.transport.dropped and recorded as ReasonLoss on the
// sender's ring.
func TestDropTransportCountsDrops(t *testing.T) {
	const n = 100
	reg := metrics.NewRegistry()
	rec := flight.New(8, 1<<10)
	rt, got := sendSequence(t, ClusterConfig{Seed: 1, Drop: 0.5, Metrics: reg, Flight: rec}, n)
	if rt.Dropped() == 0 || int(rt.Dropped())+len(got) != n {
		t.Fatalf("dropped %d + delivered %d != %d", rt.Dropped(), len(got), n)
	}
	if c := reg.Snapshot().Counters["dist.transport.dropped"]; c != rt.Dropped() {
		t.Errorf("dropped counter %d != Dropped() %d", c, rt.Dropped())
	}
	var losses int64
	for _, e := range rec.Snapshot().Events {
		if e.Kind != flight.EvNetDrop {
			continue
		}
		if e.Flags != flight.ReasonLoss || e.Node != 0 {
			t.Errorf("drop record with reason %d on node %d, want ReasonLoss on sender 0", e.Flags, e.Node)
		}
		losses++
	}
	if losses != rt.Dropped() {
		t.Errorf("%d loss records for %d drops", losses, rt.Dropped())
	}
}

// TestDropTransportValidation pins the accepted range of ClusterConfig.Drop,
// [0, 1): the bounds and non-numbers are rejected by name, the rates inside
// construct a runtime.
func TestDropTransportValidation(t *testing.T) {
	for _, rate := range []float64{-0.1, 1, math.Inf(1), math.NaN()} {
		_, err := NewShardRuntime(graph.Cycle(8), make([]float64, 8), VanillaRule{}, ShardRuntimeConfig{
			ClusterConfig: ClusterConfig{Drop: rate},
		})
		if err == nil || !strings.Contains(err.Error(), "drop rate") {
			t.Errorf("Drop %v: got %v, want a drop rate error", rate, err)
		}
	}
	for _, rate := range []float64{0, 0.5, math.Nextafter(1, 0)} {
		if _, err := NewShardRuntime(graph.Cycle(8), make([]float64, 8), VanillaRule{}, ShardRuntimeConfig{
			ClusterConfig: ClusterConfig{Drop: rate},
		}); err != nil {
			t.Errorf("Drop %v: %v", rate, err)
		}
	}
}

// TestDelayTransportValidation pins the accepted range of
// ClusterConfig.Delay: a negative latency is rejected, zero and positive
// ones construct a runtime.
func TestDelayTransportValidation(t *testing.T) {
	for _, delay := range []time.Duration{-time.Millisecond, 0, time.Millisecond} {
		_, err := NewShardRuntime(graph.Cycle(8), make([]float64, 8), VanillaRule{}, ShardRuntimeConfig{
			ClusterConfig: ClusterConfig{Delay: delay},
		})
		if (err != nil) != (delay < 0) {
			t.Errorf("Delay %v: got error %v", delay, err)
		}
	}
}

// TestShardDelayHoldsUntilDue pins the latency draws: every delayed send
// is held, a release posts exactly the held messages that are due, and
// all of them are out once Delay has passed.
func TestShardDelayHoldsUntilDue(t *testing.T) {
	const n = 200
	const delay = 5 * time.Millisecond
	rt, got := sendSequence(t, ClusterConfig{Seed: 1, Delay: delay}, n)
	if len(got) != 0 {
		t.Fatalf("%d messages posted before any delay passed", len(got))
	}
	s := rt.shards[0]
	if rt.Delayed() != n || len(s.held) != n {
		t.Fatalf("Delayed() = %d with %d held, want %d", rt.Delayed(), len(s.held), n)
	}
	for nowNs := int64(0); nowNs <= int64(delay); nowNs += int64(delay) / 10 {
		due := 0
		for _, h := range s.held {
			if h.dueNs <= nowNs {
				due++
			}
		}
		s.releaseDue(nowNs)
		if posted := len(s.inbox.drainSwap(nil)); posted != due {
			t.Fatalf("release at %dns posted %d messages, %d were due", nowNs, posted, due)
		}
		for _, h := range s.held {
			if h.dueNs <= nowNs {
				t.Fatalf("message due at %dns still held after a release at %dns", h.dueNs, nowNs)
			}
		}
	}
	if len(s.held) != 0 {
		t.Errorf("%d messages still held after the maximum delay", len(s.held))
	}
}

// TestShardRuntimeShutdownNoLeak extends the repository's leak discipline
// to the sharded runtime: three consecutive runs on the same runtime (the
// reuse contract) must leave no goroutines or timers behind.
func TestShardRuntimeShutdownNoLeak(t *testing.T) { testNoLeak(t, 3) }

// TestNoGoroutineLeakAfterRun is the same check with one shard loop per
// node, the most goroutines a run of this graph can start.
func TestNoGoroutineLeakAfterRun(t *testing.T) { testNoLeak(t, perNode) }

func testNoLeak(t *testing.T, shards int) {
	base := leakSnapshot()
	g, _, x0 := dumbbellCase(t)
	for _, delay := range []time.Duration{0, time.Millisecond} {
		rt := newTestRuntime(t, g, x0, NewVanillaRule(), shards, ClusterConfig{
			TimeScale: 2 * time.Millisecond, Seed: 3,
			Delay: delay, LockTimeout: 4 * delay, // 0 keeps the default
		})
		for run := 0; run < 3; run++ {
			if err := rt.Run(context.Background(), 4); err != nil {
				t.Fatalf("delay %v, run %d: %v", delay, run, err)
			}
			if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
				t.Fatalf("delay %v, run %d: sum drifted by %g", delay, run, drift)
			}
		}
	}
	base.check(t)
}

// TestShardRuntimeContextCancel cancels mid-run: Run must drain to
// quiescence (sum still exactly conserved), report context.Canceled
// promptly, unwind every shard goroutine, and leave the runtime usable.
func TestShardRuntimeContextCancel(t *testing.T) { testCancel(t, 3) }

// TestCleanShutdownOnContextCancel is the same check with one node per
// shard, so the drain has to resolve exchanges across shard loops.
func TestCleanShutdownOnContextCancel(t *testing.T) { testCancel(t, perNode) }

func testCancel(t *testing.T, shards int) {
	base := leakSnapshot()
	g, part, x0 := dumbbellCase(t)
	rule, err := NewSparseCutRule(part, part.CutEdges()[0], 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rt := newTestRuntime(t, g, x0, rule, shards, ClusterConfig{TimeScale: 4 * time.Millisecond, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = rt.Run(ctx, 1e6) // nominally ~4000s of wall time; the cancel cuts it short
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Run took %v to shut down", elapsed)
	}
	if drift := math.Abs(sum(rt.Values()) - sum(x0)); drift > 1e-9 {
		t.Errorf("sum drifted by %g across a cancelled run", drift)
	}
	base.check(t)
	if err := rt.Run(context.Background(), 1); err != nil {
		t.Errorf("Run after cancelled run: %v", err)
	}
	base.check(t)
}

// TestShardRuntimeValidation pins the constructor's input checking.
func TestShardRuntimeValidation(t *testing.T) {
	g := graph.Cycle(8)
	x0 := make([]float64, 8)
	valid := func() ShardRuntimeConfig {
		return ShardRuntimeConfig{ClusterConfig: ClusterConfig{TimeScale: time.Millisecond}}
	}
	edgeless, err := graph.NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
		x0   []float64
		rule Rule
		cfg  ShardRuntimeConfig
	}{
		{"nil graph", nil, x0, VanillaRule{}, valid()},
		{"edgeless graph", edgeless, []float64{1, 2}, VanillaRule{}, valid()},
		{"length mismatch", g, x0[:3], VanillaRule{}, valid()},
		{"nil rule", g, x0, nil, valid()},
		{"negative time scale", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.TimeScale = -time.Second
			return c
		}()},
		{"negative shards", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.Shards = -1
			return c
		}()},
		{"negative drop", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.Drop = -0.1
			return c
		}()},
		{"drop one", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.Drop = 1
			return c
		}()},
		{"NaN drop", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.Drop = math.NaN()
			return c
		}()},
		{"negative delay", g, x0, VanillaRule{}, func() ShardRuntimeConfig {
			c := valid()
			c.Delay = -time.Millisecond
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewShardRuntime(tc.g, tc.x0, tc.rule, tc.cfg); err == nil {
				t.Error("constructor accepted an invalid configuration")
			}
		})
	}

	// Shard-count clamping: more shards than nodes must degrade to one
	// node per shard, not fail or leave empty loops.
	rt, err := NewShardRuntime(g, x0, VanillaRule{}, ShardRuntimeConfig{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Shards(); got != 8 {
		t.Errorf("Shards() = %d with 8 nodes, want 8", got)
	}
	if err := rt.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestShardRuntimeRunGuards pins Run's argument checking and the
// accessors' pre-run view.
func TestShardRuntimeRunGuards(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rt := newTestRuntime(t, g, x0, VanillaRule{}, 2, ClusterConfig{TimeScale: time.Millisecond})
	for _, d := range []float64{0, -1, math.Inf(1), math.NaN(), 1e300} {
		if err := rt.Run(context.Background(), d); err == nil {
			t.Errorf("Run accepted duration %v", d)
		}
	}
	if got := rt.Values(); len(got) != g.NumNodes() {
		t.Errorf("Values() length %d, want %d", len(got), g.NumNodes())
	}
	if v := rt.Variance(); math.Abs(v-1) > 1e-12 {
		t.Errorf("pre-run variance %g, want 1", v)
	}
}

// TestShardSameTickExchangesCommit pins delivery between clock fires. On
// a dense graph most of a shard's clocks fall due in the same wheel tick;
// if the shard fired them all before delivering any message, each node
// would lock itself as an initiator and NACK its peers' LOCKs, and aborts
// would outnumber commits by orders of magnitude.
func TestShardSameTickExchangesCommit(t *testing.T) {
	g, _, err := graph.Dumbbell(32, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.UniformRandom(rng.New(1), g.NumNodes())
	rt := newTestRuntime(t, g, x0, NewVanillaRule(), 2, ClusterConfig{TimeScale: 4 * time.Millisecond, Seed: 1})
	if err := rt.Run(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if rt.Exchanges() < rt.Aborted() {
		t.Errorf("%d exchanges committed against %d aborted; same-tick initiations are NACKing each other",
			rt.Exchanges(), rt.Aborted())
	}
	assertLedger(t, rt)
	t.Logf("%d committed, %d aborted", rt.Exchanges(), rt.Aborted())
}

// TestSettleResolvesHeldProposalsByExactWatermark leaves lock slots set
// as a drain could in principle strand them and checks that the settle
// pass resolves each the way its initiator decided. Node 0 initiated
// toward 1 (seq 1, aborted), then toward 2 (seq 2, applied +d2), then
// toward 1 again (seq 3, applied). Node 1 still holds the aborted seq-1
// proposal: below node 0's watermark for it, never applied, so settling
// must discard it. Node 2 holds seq 2, which node 0 applied, so settling
// must land -d2. Node 3 holds an initiation, which just clears.
func TestSettleResolvesHeldProposalsByExactWatermark(t *testing.T) {
	g, _, x0 := dumbbellCase(t)
	rt := newTestRuntime(t, g, x0, NewVanillaRule(), 3, ClusterConfig{})
	const d1, d2 = 0.25, 0.5
	initiator := rt.stateOf(0)
	initiator.Seq = 3
	initiator.LastApplied = map[int]uint64{1: 3, 2: 2}
	initiator.X += d2
	rt.stateOf(1).Lock = LockSlot{Role: RoleResponder, Peer: 0, Seq: 1, D: d1}
	rt.stateOf(2).Lock = LockSlot{Role: RoleResponder, Peer: 0, Seq: 2, D: d2}
	rt.stateOf(3).Lock = LockSlot{Role: RoleInitiator, Peer: 4, Seq: 1}

	rt.settle()

	total := 0.0
	for i := range x0 {
		st := rt.stateOf(i)
		if st.Locked() {
			t.Errorf("node %d still locked after settling: %+v", i, st.Lock)
		}
		total += st.X
	}
	if drift := total - sum(x0); drift != 0 {
		t.Errorf("sum drifted by %g across the settle pass", drift)
	}
	if got := rt.stateOf(1).X; got != x0[1] {
		t.Errorf("node 1 = %v, want %v: the aborted seq-1 proposal was applied", got, x0[1])
	}
	if got := rt.Exchanges(); got != 1 {
		t.Errorf("settling committed %d exchanges, want 1", got)
	}
}
