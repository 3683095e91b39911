package main

import "fmt"

// A metric's name and unit, as BENCHMARK.json records them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, whatever its
// workload: the set-up time, the wall time of one job and the job's
// operations per second. What a job and an operation are is workload
// specific (see each workload's file). Workload-specific figures such as
// commit latency are printed by the untraced run too, and carried by the
// traced run as per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics the traced run reports: time and work per layer
// call, layer micro-costs, and each workload's residual_frac.
var perLayer = func() []metricDef {
	var m []metricDef
	for i := 1; i <= 15; i++ {
		m = append(m, metricDef{fmt.Sprintf("report.E%d_s", i), "s"})
	}
	m = append(m, metricDef{"scenario.resolve_s", "s"}, metricDef{"graph.build_s", "s"})
	for _, a := range sweepAlgos {
		m = append(m,
			metricDef{"avgtime." + a + "_s", "s"},
			metricDef{"avgtime." + a + "_events", "count"},
			metricDef{"avgtime." + a + "_ns_per_event", "ns"})
	}
	for _, a := range batchAlgos {
		m = append(m, metricDef{"gossip.batch_" + a + "_ns_per_event", "ns"})
	}
	m = append(m,
		metricDef{"rng.gamma_int_ns", "ns"},
		metricDef{"sim.batch.chunks", "count"},
		metricDef{"sweep.idle_frac", "ratio"},
		metricDef{"sweep.cell_max_s", "s"},
		metricDef{"graph.fill_ns_per_pair", "ns"},
		metricDef{"gossip.flat_tick_ns_per_event", "ns"},
		metricDef{"rng.poisson_ns", "ns"},
		metricDef{"sim.shard.events", "count"},
		metricDef{"sim.shard.boundary.events", "count"},
		metricDef{"sim.shard.windows", "count"},
		metricDef{"sim.shard.segments", "count"},
		metricDef{"dist.machine_ns_per_exchange", "ns"},
		metricDef{"dist.machine_allocs_per_exchange", "count"},
	)
	for _, k := range msgKinds {
		m = append(m, metricDef{"dist.msg.sent." + k, "count"})
	}
	m = append(m,
		metricDef{"dist.msgs_per_commit", "ratio"},
		metricDef{"dist.mailbox_depth_max", "count"},
		metricDef{"dist.shard_skew", "ratio"},
		metricDef{"dist.late_initiation_frac", "ratio"},
		metricDef{"dist.runtime_ns_per_commit", "ns"},
	)
	for _, w := range workloads {
		m = append(m, metricDef{"residual_frac." + w.name, "ratio"})
	}
	return append(m,
		metricDef{"sweep-grid.cells_per_s", "1/s"},
		metricDef{"sweep-grid.events_per_s", "1/s"},
		metricDef{"shard-1m.events_per_s", "1/s"},
		metricDef{"shard-1m.bytes_per_node", "B"},
		metricDef{"dist-100k.bytes_per_node", "B"},
		metricDef{"dist-100k.commits_per_s", "1/s"},
		metricDef{"dist-100k.commit_p50_ms", "ms"},
		metricDef{"dist-100k.commit_p99_ms", "ms"},
		metricDef{"dist-100k.fail_ratio", "ratio"},
	)
}()

// unitOf returns the unit of a catalogued metric.
func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}
