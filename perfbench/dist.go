package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"sparsecut/internal/dist"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// dist-100k is the only workload in internal/dist: ShardRuntime with two
// shard loops on a 10^5-node torus dumbbell (cut 8), vanilla rule, direct
// path, metrics registry attached, from a random initial vector. It is an
// open loop: every node initiates at Poisson rate deg/2 per time unit and
// a time unit lasts 500 ms, so 2·10^5 edges offer 4·10^5 initiations/s,
// below the runtime's knee. Time-to-ε is not measurable at this size (the
// variance ratio moves ~0.1% in 5 s), so the workload measures goodput
// and latency at that fixed load. The first seconds are a start-up burst,
// so the measured window starts after distWarmup.
//
//   - job: one Run for the whole budget, checked for exact sum
//     conservation, proposed == applied + aborted and applied == committed;
//   - operation: one committed exchange, so ops_per_s is commits/s;
//   - set-up: building the graph, the initial vector and the runtime.
//
// --seed draws the initial vector and seeds the runtime.
const (
	distNodes  = 100_000
	distCut    = 8
	distScale  = 500 * time.Millisecond
	distWarmup = 2 * time.Second
	// distTracedBudget is the traced run's length: warm-up plus a short
	// measured window.
	distTracedBudget = 5 * time.Second
)

var msgKinds = []string{"lock", "propose", "nack", "commit"}

type distSetup struct {
	g   *graph.Graph
	x0  []float64
	reg *metrics.Registry
	rt  *dist.ShardRuntime
}

func buildDist(seed uint64, tr *tracer) (*distSetup, error) {
	id := tr.begin("graph.build", 0)
	g, _, err := graph.TorusDumbbell(distNodes, distCut)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	s := &distSetup{g: g, x0: gossip.UniformRandom(rng.New(seed), distNodes), reg: metrics.NewRegistry()}
	s.rt, err = dist.NewShardRuntime(g, s.x0, dist.NewVanillaRule(), dist.ShardRuntimeConfig{
		ClusterConfig: dist.ClusterConfig{TimeScale: distScale, Seed: seed, Metrics: s.reg},
		Shards:        workers,
	})
	return s, err
}

// offeredPerS is the open loop's initiation rate: node u initiates at rate
// deg(u)/2 per time unit, |E| per unit in all.
func (s *distSetup) offeredPerS() float64 {
	return float64(s.g.NumEdges()) / distScale.Seconds()
}

func runDist(seed uint64, budget time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var s *distSetup
	setup, retained, err := setUp(tr, func() error {
		var err error
		s, err = buildDist(seed, tr)
		return err
	}, func() { s = nil })
	if err != nil {
		return o, err
	}
	o.metrics["setup_s"] = setup
	o.metrics["dist-100k.bytes_per_node"] = retained / distNodes
	if tr != nil {
		budget = distTracedBudget
	}
	if budget < distWarmup+time.Second {
		return o, fmt.Errorf("dist-100k needs a budget of at least %v", distWarmup+time.Second)
	}

	root := tr.begin("dist-100k", 0)
	m, err := s.measure(budget, tr, root)
	tr.end(root)
	if err != nil {
		return o, err
	}
	if err := s.check(o, m); err != nil {
		return o, err
	}

	d := m.delta
	proposed := float64(d.Counters["dist.exchange.proposed"])
	commitsPerS := median(m.rates)
	lat := d.Histograms["dist.exchange.latency_ns"]
	o.metrics["wall_s"] = m.wall.Seconds()
	o.metrics["ops_per_s"] = commitsPerS
	o.metrics["dist-100k.commits_per_s"] = commitsPerS
	o.metrics["dist-100k.commit_p50_ms"] = lat.Quantile(0.50) / 1e6
	o.metrics["dist-100k.commit_p99_ms"] = lat.Quantile(0.99) / 1e6
	o.metrics["dist-100k.fail_ratio"] = ratio(float64(d.Counters["dist.exchange.aborted"]), proposed)
	fmt.Printf("dist-100k: offered %.0f initiations/s, proposed %.0f/s, committed %.0f/s (median of %d samples) over %.2fs after a %v warm-up\n",
		s.offeredPerS(), proposed/m.offered.Seconds(), commitsPerS, len(m.rates), m.window.Seconds(), distWarmup)
	if tr != nil {
		return o, s.traceMetrics(m, tr, root, o)
	}
	return o, nil
}

// distMeasure is one measured Run: the metrics delta from the end of the
// warm-up to the end of the run and the window it spans, the commit rate
// of each sampling interval in that window, the whole Run's wall time, and
// the deepest mailbox sampled.
type distMeasure struct {
	delta    metrics.Snapshot
	window   time.Duration // warm-up end to Run return, drain included
	offered  time.Duration // warm-up end to the end of the horizon
	rates    []float64
	wall     time.Duration
	depthMax float64
}

// measure runs the runtime for budget. A helper goroutine snapshots the
// registry when the warm-up ends and then at every sampling interval until
// the run returns, recording each interval's commit rate and the mailbox
// depth gauges. Traced runs sample every 20 ms to catch mailbox peaks;
// measured runs every 250 ms, which keeps the snapshots' cost negligible.
func (s *distSetup) measure(budget time.Duration, tr *tracer, root int) (*distMeasure, error) {
	every := 250 * time.Millisecond
	if tr != nil {
		every = 20 * time.Millisecond
	}
	m := &distMeasure{}
	var first metrics.Snapshot
	var firstAt time.Time
	warmed := false
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		timer := time.NewTimer(distWarmup)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-done:
			return
		}
		first, firstAt, warmed = s.reg.Snapshot(), time.Now(), true
		prev, prevAt := first, firstAt
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-done:
				return
			}
			snap, at := s.reg.Snapshot(), time.Now()
			c := snap.Counters["dist.exchange.committed"] - prev.Counters["dist.exchange.committed"]
			m.rates = append(m.rates, float64(c)/at.Sub(prevAt).Seconds())
			prev, prevAt = snap, at
			for name, v := range snap.Gauges {
				if strings.HasSuffix(name, ".mailbox_depth") {
					m.depthMax = math.Max(m.depthMax, v)
				}
			}
		}
	}()

	start := time.Now()
	id := tr.begin("dist.ShardRuntime.Run", root)
	err := s.rt.Run(context.Background(), budget.Seconds()/distScale.Seconds())
	tr.end(id)
	end := time.Now()
	close(done)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if !warmed || len(m.rates) == 0 {
		return nil, errors.New("dist-100k: the run ended before its warm-up")
	}
	m.delta = s.reg.Snapshot().Delta(first)
	m.window = end.Sub(firstAt)
	m.offered = start.Add(budget).Sub(firstAt)
	m.wall = end.Sub(start)
	return m, nil
}

// check verifies the ledger invariants of the finished run.
func (s *distSetup) check(o *outcome, m *distMeasure) error {
	rt := s.rt
	o.attempted += m.delta.Counters["dist.exchange.proposed"]
	var sum0, sum float64
	for _, v := range s.x0 {
		sum0 += v
	}
	for _, v := range rt.Values() {
		sum += v
	}
	// The tolerance cmd/distrun -assert uses: each committed exchange moves
	// the sum by at most two roundings.
	if drift := math.Abs(sum - sum0); !(drift < 1e-6) {
		return checkf("value sum drifted by %g", drift)
	}
	if rt.Proposed() != rt.Applied()+rt.Aborted() {
		return checkf("proposed %d != applied %d + aborted %d", rt.Proposed(), rt.Applied(), rt.Aborted())
	}
	if rt.Applied() != rt.Exchanges() {
		return checkf("applied %d != committed %d", rt.Applied(), rt.Exchanges())
	}
	return nil
}

// traceMetrics derives the runtime's per-layer metrics from the measured
// delta, and times the pure protocol machine in isolation.
func (s *distSetup) traceMetrics(m *distMeasure, tr *tracer, root int, o *outcome) error {
	d := m.delta
	committed := float64(d.Counters["dist.exchange.committed"])
	var sent float64
	for _, k := range msgKinds {
		v := float64(d.Counters["dist.msg.sent."+k])
		o.metrics["dist.msg.sent."+k] = v
		sent += v
	}
	o.metrics["dist.msgs_per_commit"] = ratio(sent, committed)
	o.metrics["dist.mailbox_depth_max"] = m.depthMax

	var shardMax, shardSum float64
	for i := 0; i < s.rt.Shards(); i++ {
		c := float64(d.Counters[fmt.Sprintf("dist.shard.%02d.committed", i)])
		shardMax = math.Max(shardMax, c)
		shardSum += c
	}
	o.metrics["dist.shard_skew"] = ratio(shardMax, shardSum/float64(s.rt.Shards()))
	offered := s.offeredPerS() * m.offered.Seconds()
	o.metrics["dist.late_initiation_frac"] = 1 - ratio(float64(d.Counters["dist.exchange.proposed"]), offered)

	ns, allocs, err := machineCost()
	if err != nil {
		return err
	}
	o.metrics["dist.machine_ns_per_exchange"] = ns
	o.metrics["dist.machine_allocs_per_exchange"] = allocs
	shardNs := float64(s.rt.Shards()) * float64(m.window.Nanoseconds())
	o.metrics["dist.runtime_ns_per_commit"] = ratio(shardNs, committed) - ns
	o.metrics["residual_frac.dist-100k"] = tr.residual(root)
	return nil
}

// machineCost times the pure protocol machine alone: one node pair running
// LOCK → PROPOSE → COMMIT exchanges through Initiate and Deliver, with no
// runtime, mailbox or clock around it. It returns nanoseconds and heap
// allocations per exchange.
func machineCost() (ns, allocs float64, err error) {
	g, err := graph.NewBuilder(2).AddEdge(0, 1).Build()
	if err != nil {
		return 0, 0, err
	}
	mc := dist.Machine{G: g, Rule: dist.NewVanillaRule(), Epoch: 1, LockTimeoutNs: 1e9, ResendEveryNs: 1e8}
	a, b := dist.NewNodeState(0, 1), dist.NewNodeState(1, 0)
	he := g.Neighbors(0)[0]
	exchange := func(now int64) error {
		lock := mc.Initiate(a, he, now)
		prop := mc.Deliver(b, lock.Send[0], now, false)
		commit := mc.Deliver(a, prop.Send[0], now, false)
		if done := mc.Deliver(b, commit.Send[0], now, false); !commit.Applied || !done.Committed {
			return errors.New("machine exchange did not commit")
		}
		return nil
	}
	const n, rounds = 200_000, 5
	var before, after runtime.MemStats
	var mallocs uint64
	samples := make([]float64, 0, rounds)
	for round := 0; round < rounds; round++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := exchange(int64(i)); err != nil {
				return 0, 0, err
			}
		}
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		samples = append(samples, float64(d.Nanoseconds())/n)
	}
	return median(samples), float64(mallocs) / (rounds * n), nil
}
