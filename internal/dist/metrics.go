package dist

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"sparsecut/internal/metrics"
)

// clusterMetrics is the runtime's telemetry plane, populated only when
// ClusterConfig.Metrics is set. Disabled (the zero value) every field is
// nil, so the hot-path hooks in shard.go reduce to nil-receiver no-ops —
// the runtime's behaviour and random streams are identical with telemetry
// on or off; only wall-clock observation is added.
//
// The per-shard/per-runtime split the instrumentation follows: counters
// are sharded by shard loop (each loop writes its own cache line) and
// aggregated at snapshot time; already-counted state (the exchange
// ledger's proposed, commit and abort totals, rule tick counters, loss and
// congestion counters) is exported through snapshot-time reader funcs at
// zero hot-path cost.
type clusterMetrics struct {
	// sent counts protocol messages sent, per kind, sharded by shard loop. Indexed by MsgKind (1..4; slot 0 unused).
	sent [5]*metrics.Counter
	// latency is the committed-exchange round trip observed at the
	// initiator: LOCK sent → PROPOSE applied, in nanoseconds.
	latency *metrics.Histogram
	// live mirrors every node's current value (float64 bits), written by
	// the owning shard after each applied delta, so the convergence gauges
	// can be computed while the run is in flight. It is a monitoring view:
	// reads are atomic per node but not a consistent cut across nodes.
	live []atomic.Uint64
}

// publish records node id's new value into the live mirror (no-op when
// telemetry is disabled).
func (m *clusterMetrics) publish(id int, x float64) {
	if m.live == nil {
		return
	}
	m.live[id].Store(math.Float64bits(x))
}

// instrument registers the runtime's instruments on reg: the
// runtime-level exchange, message, latency and progress series, plus the
// per-shard plane — throughput and abort rate per shard loop (reading the
// shards' single-writer counters at snapshot time) and mailbox depth per
// shard. One registry per runtime: re-instrumenting a second runtime on
// the same registry accumulates counters and rebinds the reader funcs to
// the newest runtime.
func (rt *ShardRuntime) instrument(reg *metrics.Registry) {
	reg.CounterFunc("dist.exchange.proposed", rt.Proposed)
	reg.CounterFunc("dist.exchange.committed", rt.Exchanges)
	reg.CounterFunc("dist.exchange.aborted", rt.Aborted)
	reg.CounterFunc("dist.node.crashes", rt.Crashes)
	reg.CounterFunc("dist.node.crash_lost", rt.CrashLost)
	for _, k := range []MsgKind{MsgLock, MsgPropose, MsgNack, MsgCommit} {
		rt.met.sent[k] = reg.Counter("dist.msg.sent." + strings.ToLower(k.String()))
	}
	rt.met.latency = reg.Histogram("dist.exchange.latency_ns")

	rt.met.live = make([]atomic.Uint64, len(rt.values))
	for i, v := range rt.values {
		rt.met.live[i].Store(math.Float64bits(v))
	}
	// The convergence-progress gauges: current variance of the live value
	// mirror, normalised by the variance at instrumentation time. The
	// ratio starts at 1 and decays toward 0 as the exchange rule averages
	// the network — the live "how converged are we" signal cmd/distrun
	// serves over -http.
	var0 := liveVariance(rt.met.live)
	reg.GaugeFunc("dist.progress.var_ratio", func() float64 {
		if var0 == 0 {
			return 0
		}
		return liveVariance(rt.met.live) / var0
	})
	reg.GaugeFunc("dist.progress.mean", func() float64 { return liveMean(rt.met.live) })

	for _, s := range rt.shards {
		s := s
		prefix := fmt.Sprintf("dist.shard.%02d.", s.id)
		reg.CounterFunc(prefix+"committed", s.committed.Load)
		reg.CounterFunc(prefix+"aborted", s.abortedL.Load)
		reg.GaugeFunc(prefix+"mailbox_depth", func() float64 { return float64(s.inbox.depth()) })
	}

	if r, ok := rt.rule.(*SparseCutRule); ok {
		reg.CounterFunc("dist.rule.ticks", r.Ticks)
		reg.CounterFunc("dist.rule.swaps", r.Swaps)
	}
	reg.CounterFunc("dist.transport.dropped", rt.Dropped)
	reg.CounterFunc("dist.transport.delayed", rt.Delayed)
	reg.CounterFunc("dist.transport.congested", rt.Congested)
}

func liveMean(live []atomic.Uint64) float64 {
	if len(live) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range live {
		s += math.Float64frombits(live[i].Load())
	}
	return s / float64(len(live))
}

func liveVariance(live []atomic.Uint64) float64 {
	if len(live) == 0 {
		return 0
	}
	m := liveMean(live)
	s := 0.0
	for i := range live {
		d := math.Float64frombits(live[i].Load()) - m
		s += d * d
	}
	return s / float64(len(live))
}
