package dist

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sparsecut/internal/metrics"
)

// instrument registers the runtime's telemetry on reg. Every count is one
// the runtime already keeps — the shards' exchange ledgers (initiations,
// commits, aborts, messages sent per kind, loss, delay and congestion),
// the rule's tick and swap counters and the mailbox depths — exported
// through snapshot-time readers that sum over the shards, so the hot path
// records nothing twice. The one instrument recorded into is the
// committed-exchange latency histogram. One registry per runtime:
// instrumenting a second runtime on the same registry rebinds the readers
// to the newest runtime and accumulates into the histogram.
func (rt *ShardRuntime) instrument(reg *metrics.Registry) {
	reg.CounterFunc("dist.exchange.proposed", rt.Proposed)
	reg.CounterFunc("dist.exchange.committed", rt.Exchanges)
	reg.CounterFunc("dist.exchange.aborted", rt.Aborted)
	for _, k := range []MsgKind{MsgLock, MsgPropose, MsgNack, MsgCommit} {
		reg.CounterFunc("dist.msg.sent."+strings.ToLower(k.String()), func() int64 {
			return rt.total(func(l *ledger) *atomic.Int64 { return &l.sent[k] })
		})
	}
	rt.latency = reg.Histogram("dist.exchange.latency_ns")

	for _, s := range rt.shards {
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
