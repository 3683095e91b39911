package dist

import (
	"fmt"
	"strings"

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
}

// instrument registers the runtime's instruments on reg: the
// runtime-level exchange, message and latency series, plus the
// per-shard plane — throughput and abort rate per shard loop (reading the
// shards' single-writer counters at snapshot time) and mailbox depth per
// shard. One registry per runtime: re-instrumenting a second runtime on
// the same registry accumulates counters and rebinds the reader funcs to
// the newest runtime.
func (rt *ShardRuntime) instrument(reg *metrics.Registry) {
	reg.CounterFunc("dist.exchange.proposed", rt.Proposed)
	reg.CounterFunc("dist.exchange.committed", rt.Exchanges)
	reg.CounterFunc("dist.exchange.aborted", rt.Aborted)
	for _, k := range []MsgKind{MsgLock, MsgPropose, MsgNack, MsgCommit} {
		rt.met.sent[k] = reg.Counter("dist.msg.sent." + strings.ToLower(k.String()))
	}
	rt.met.latency = reg.Histogram("dist.exchange.latency_ns")

	for _, s := range rt.shards {
		s := s
		prefix := fmt.Sprintf("dist.shard.%02d.", s.id)
		reg.CounterFunc(prefix+"committed", s.led.committed.Load)
		reg.CounterFunc(prefix+"aborted", s.led.aborted.Load)
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
