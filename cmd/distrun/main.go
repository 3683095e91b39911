// Command distrun runs one gossip-averaging workload on the *decentralized*
// message-passing runtime and reports the outcome, optionally against the
// sequential simulator on the same graph, horizon and seed.
//
// The runtime multiplexes all nodes over -shards event loops with
// per-shard timer wheels and batched mailboxes, which reaches 10^6 nodes
// on one box. The torusdumbbell graph family is its natural companion:
// the dumbbell bottleneck at constant degree, so the worst case
// materialises at millions of nodes.
//
// Usage:
//
//	distrun -graph dumbbell -n 16 -cut 1 -rule A        -until 40
//	distrun -graph dumbbell -n 16 -rule A -drop 0.05    -until 40 -compare
//	distrun -graph planted  -n 60 -rule vanilla -delay 2ms -until 20
//	distrun -graph sensor   -n 64 -cut 2 -rule A        -until 30
//	distrun -shards 8 -graph torusdumbbell -n 1000000 \
//	        -cut 8 -rule vanilla -drop 0.05 -until 0.5 -scale 4s -assert
//
// The graph flags are scenario.GraphFlags, as in gossipsim: at the same
// -seed both build the same graph and initial vector from any registry
// family. Rule A needs a family with a planted partition.
//
// -assert verifies the run's invariants afterwards — exact sum
// conservation and the exchange ledger (proposed == applied + aborted,
// applied == committed) — and exits non-zero on any violation.
//
// Shards exchange messages through in-process mailboxes. -drop injects
// i.i.d. message loss and -delay random per-message latency on that path.
// -scale sets the wall-clock length of one simulated time unit: smaller
// runs faster but leaves less headroom over message latency.
//
// A run is observed through the files it writes when it ends. -metrics
// writes the runtime's telemetry snapshot as JSON: exchange/abort/message
// counters, the exchange-latency histogram and the per-shard counters and
// mailbox depths. It defaults off, leaving the runtime uninstrumented.
//
// -flight attaches the causal flight recorder: every protocol transition,
// message hop, drop and timer fire lands in a bounded per-node ring
// buffer, dumped as JSON to the named file when the run ends. -flight-cap
// sets the ring capacity per node (0 = the default; negative is an error).
// Render dumps with cmd/tracez:
//
//	distrun -graph dumbbell -n 16 -rule A -until 10 -flight run.flight.json
//	tracez -view timeline run.flight.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"sparsecut"
	"sparsecut/internal/scenario"
)

func main() {
	gs := scenario.GraphFlags(flag.CommandLine, "dumbbell", 16)
	var (
		ruleKind  = flag.String("rule", "A", "exchange rule: A | vanilla")
		epochK    = flag.Int64("epoch", 4, "swap period K in ticks of ec (rule A); too small under-mixes the sides between swaps")
		until     = flag.Float64("until", 40, "horizon in simulated time units")
		scale     = flag.Duration("scale", 4*time.Millisecond, "wall-clock length of one simulated time unit")
		drop      = flag.Float64("drop", 0, "message loss probability in [0,1)")
		delay     = flag.Duration("delay", 0, "max random per-message latency (0 = none)")
		shards    = flag.Int("shards", 0, "shard event loops (0 = GOMAXPROCS)")
		assert    = flag.Bool("assert", false, "verify sum conservation and the exchange ledger after the run; exit non-zero on violation")
		seed      = flag.Uint64("seed", 1, "random seed")
		compare   = flag.Bool("compare", false, "also run the sequential simulator on the same workload")
		metrics   = flag.String("metrics", "", "write the final telemetry snapshot JSON to this file")
		flightOut = flag.String("flight", "", "record per-exchange flight events and write the JSON dump to this file (render with tracez)")
		flightCap = flag.Int("flight-cap", 0, "flight-recorder ring capacity per node (0 = default)")
	)
	flag.Parse()
	if *flightCap < 0 {
		fatal(fmt.Errorf("-flight-cap %d is negative", *flightCap))
	}

	res, rule, err := build(scenario.Spec{
		Graph: *gs,
		Algo:  scenario.AlgoSpec{Name: *ruleKind, EpochTicks: *epochK},
		Seed:  *seed,
	})
	if err != nil {
		fatal(err)
	}
	g, x0 := res.Graph, res.X0
	cfg := sparsecut.ClusterConfig{
		TimeScale: *scale,
		Seed:      *seed,
		Drop:      *drop,
		Delay:     *delay,
	}
	var reg *sparsecut.MetricsRegistry
	if *metrics != "" {
		reg = sparsecut.NewMetricsRegistry()
		cfg.Metrics = reg
	}
	var rec *sparsecut.FlightRecorder
	if *flightOut != "" {
		rec = sparsecut.NewFlightRecorder(g.NumNodes(), *flightCap)
		cfg.Flight = rec
	}
	cl, err := sparsecut.NewShardRuntime(g, x0, rule, sparsecut.ShardRuntimeConfig{
		ClusterConfig: cfg, Shards: *shards,
	})
	if err != nil {
		fatal(err)
	}
	var0 := cl.Variance()
	sum0 := sumOf(x0)

	res.Describe(os.Stdout)
	fmt.Printf("rule:       %s\n", rule.Name())
	fmt.Printf("transport:  %s\n", describeFaults(*drop, *delay))
	fmt.Printf("running:    %d nodes on %d shard loops for t=%g (~%v wall)...\n",
		g.NumNodes(), cl.Shards(), *until, (time.Duration(*until * float64(*scale))).Round(time.Millisecond))
	start := time.Now()
	if err := cl.Run(context.Background(), *until); err != nil {
		fatal(err)
	}
	fmt.Printf("done in     %v\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("exchanges:  %d committed, %d aborted\n", cl.Exchanges(), cl.Aborted())
	fmt.Printf("mean drift: %.6g\n", math.Abs(cl.Mean()))
	fmt.Printf("var ratio:  %.6g\n", cl.Variance()/var0)

	if *assert {
		failed := false
		report := func(name string, ok bool, detail string) {
			status := "ok"
			if !ok {
				status = "VIOLATED"
				failed = true
			}
			fmt.Printf("assert:     %-22s %-8s %s\n", name, status, detail)
		}
		drift := math.Abs(sumOf(cl.Values()) - sum0)
		report("sum conservation", drift < 1e-6, fmt.Sprintf("|Σx - Σx0| = %.3g", drift))
		report("ledger balanced", cl.Proposed() == cl.Applied()+cl.Aborted(),
			fmt.Sprintf("proposed %d = applied %d + aborted %d", cl.Proposed(), cl.Applied(), cl.Aborted()))
		report("no stale commits", cl.Applied() == cl.Exchanges(),
			fmt.Sprintf("applied %d = committed %d", cl.Applied(), cl.Exchanges()))
		if failed {
			fatal(fmt.Errorf("invariant violated (see assert lines above)"))
		}
	}

	if reg != nil {
		snap := reg.Snapshot()
		fmt.Printf("messages:   %d lock, %d propose, %d nack, %d commit; %d dropped, %d delayed\n",
			snap.Counters["dist.msg.sent.lock"], snap.Counters["dist.msg.sent.propose"],
			snap.Counters["dist.msg.sent.nack"], snap.Counters["dist.msg.sent.commit"],
			snap.Counters["dist.transport.dropped"], snap.Counters["dist.transport.delayed"])
		if lat, ok := snap.Histograms["dist.exchange.latency_ns"]; ok && lat.Count > 0 {
			fmt.Printf("latency:    %v mean over %d committed exchanges\n",
				(time.Duration(lat.Sum / lat.Count)).Round(time.Microsecond), lat.Count)
			fmt.Printf("            p50 ~%v  p95 ~%v  p99 ~%v (log2-bucket estimates)\n",
				quantileDur(lat, 0.50), quantileDur(lat, 0.95), quantileDur(lat, 0.99))
		}
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics:    wrote snapshot to %s\n", *metrics)
	}

	if *flightOut != "" {
		d := rec.Snapshot()
		if err := d.WriteFile(*flightOut); err != nil {
			fatal(err)
		}
		fmt.Printf("flight:     wrote %d events to %s (overwritten %d); render with: go run ./cmd/tracez %s\n",
			len(d.Events), *flightOut, d.Overwritten, *flightOut)
	}

	if *compare {
		alg, err := res.NewAlgorithm(res.AlgorithmRNG())
		if err != nil {
			fatal(err)
		}
		sr := sparsecut.Simulate(g, alg, *until, *seed)
		fmt.Printf("\nsimulator on the same workload (t=%g, seed %d):\n", *until, *seed)
		fmt.Printf("events:     %d\n", sr.Events)
		fmt.Printf("var ratio:  %.6g\n", sr.VarianceRatio)
	}
}

// build resolves spec and the live exchange rule its algorithm names.
func build(spec scenario.Spec) (*scenario.Resolved, sparsecut.ExchangeRule, error) {
	res, err := spec.Resolve()
	if err != nil {
		return nil, nil, err
	}
	ec, epochK, w, err := res.SwapParams()
	if err != nil {
		return nil, nil, err
	}
	if res.Spec.Algo.Name == "vanilla" {
		return res, sparsecut.NewAveragingExchange(), nil
	}
	rule, err := sparsecut.NewSparseCutExchange(res.Partition, ec, epochK, w)
	return res, rule, err
}

// describeFaults names the message path and the faults injected on it.
func describeFaults(drop float64, delay time.Duration) string {
	desc := "in-process shard mailboxes"
	if delay > 0 {
		desc += fmt.Sprintf(" + uniform delay [0,%v)", delay)
	}
	if drop > 0 {
		desc += fmt.Sprintf(" + %.0f%% loss", drop*100)
	}
	return desc
}

// quantileDur renders a histogram quantile estimate as a rounded duration.
func quantileDur(h sparsecut.MetricsHistogram, q float64) time.Duration {
	v := h.Quantile(q)
	if math.IsNaN(v) {
		return 0
	}
	return time.Duration(v).Round(time.Microsecond)
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distrun:", err)
	os.Exit(1)
}
