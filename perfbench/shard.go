package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// shard-1m is the sharded engine's tile hot path at scale: a 10^6-node
// implicit dumbbell (two 5·10^5-cliques, 8 cut edges, ~2.5·10^11 edges
// never stored) from a random initial vector, advanced by
// ShardEngine.RunUntil on two workers for a fixed horizon of ~2·10^8
// events. Per event that is Tile.Fill and FlatState.TickTile, per segment
// one Poisson draw; barriers do almost nothing (2 tiles, 8 boundary edges,
// one window per call). A full Tav at this size is infeasible — the
// cliques fire 2.5·10^11 events per time unit — so the horizon is fixed.
//
//   - job: one RunUntil call advancing the state by a tenth of the
//     horizon. A repetition chains ten of them from the initial vector and
//     is checked for mean conservation and for the same final state as
//     every other repetition; once per run the state after a tenth of the
//     horizon must also be identical on 1 and 2 workers. Short jobs give
//     the median many samples against the host's bursts of contention;
//   - operation: one simulated edge event, so ops_per_s is events/s;
//   - set-up: the implicit graph and its tiling, the initial vector, the
//     flat state and the engine.
//
// --seed draws the initial vector and seeds the engine's streams.
const (
	shardSide   = 500_000
	shardCut    = 8
	shardEvents = 2e8
	shardSteps  = 10
)

type shardSetup struct {
	til     *graph.Tiling
	x0      []float64
	mean0   float64
	horizon float64 // simulated time holding ~shardEvents events
	engSeed uint64
}

func buildShard(seed uint64, tr *tracer) (*shardSetup, error) {
	id := tr.begin("graph.build", 0)
	ig, err := graph.ImplicitDumbbell(shardSide, shardSide, shardCut)
	var til *graph.Tiling
	if err == nil {
		til = ig.Tiling()
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	x0 := gossip.UniformRandom(root.Split(), ig.NumNodes())
	var sum float64
	for _, v := range x0 {
		sum += v
	}
	return &shardSetup{
		til:     til,
		x0:      x0,
		mean0:   sum / float64(len(x0)),
		horizon: shardEvents / float64(ig.NumEdges()),
		engSeed: root.Uint64(),
	}, nil
}

// engine builds a fresh run state and engine on w workers. Every engine of
// a run draws from the same streams, so equal horizons give equal final
// states.
func (s *shardSetup) engine(w int, reg *metrics.Registry) (*gossip.FlatState, *sim.ShardEngine, error) {
	st, err := gossip.NewFlatState(s.x0, s.til.Bounds())
	if err != nil {
		return nil, nil, err
	}
	eng := sim.NewShardEngine(s.til, st, rng.New(s.engSeed), sim.ShardConfig{Workers: w, Metrics: reg})
	return st, eng, nil
}

// runHorizon advances eng over the horizon in shardSteps RunUntil calls,
// each under a span, appending each call's wall time and event rate.
func (s *shardSetup) runHorizon(eng *sim.ShardEngine, tr *tracer, root int, walls, rates *[]float64) time.Duration {
	var total time.Duration
	for k := 1; k <= shardSteps; k++ {
		before := eng.Events()
		id := tr.begin("sim.ShardEngine.RunUntil", root)
		start := time.Now()
		eng.RunUntil(s.horizon * float64(k) / shardSteps)
		d := time.Since(start)
		tr.end(id)
		total += d
		*walls = append(*walls, d.Seconds())
		*rates = append(*rates, float64(eng.Events()-before)/d.Seconds())
	}
	return total
}

func runShard(seed uint64, budget time.Duration, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var s *shardSetup
	var st *gossip.FlatState
	var eng *sim.ShardEngine
	setup, retained, err := setUp(tr, func() error {
		var err error
		if s, err = buildShard(seed, tr); err != nil {
			return err
		}
		st, eng, err = s.engine(workers, nil)
		return err
	}, func() { s, st, eng = nil, nil, nil })
	if err != nil {
		return o, err
	}
	o.metrics["setup_s"] = setup
	o.metrics["shard-1m.bytes_per_node"] = retained / float64(st.N())
	runtime.KeepAlive(eng)

	if tr != nil {
		return o, traceShard(s, seed, tr, o)
	}
	var walls, rates []float64
	var digest uint64
	err = repeat(budget, 2, func() (time.Duration, error) {
		st, eng, err := s.engine(workers, nil)
		if err != nil {
			return 0, err
		}
		wall := s.runHorizon(eng, nil, 0, &walls, &rates)
		d, err := s.check(st, o)
		if err != nil {
			return 0, err
		}
		if digest == 0 {
			digest = d
		} else if d != digest {
			return 0, checkf("final state differs between repetitions of seed %d", seed)
		}
		return wall, nil
	})
	if err != nil {
		return o, err
	}
	if err := s.checkWorkers(o); err != nil {
		return o, err
	}
	o.metrics["wall_s"] = median(walls)
	o.metrics["ops_per_s"] = median(rates)
	o.metrics["shard-1m.events_per_s"] = median(rates)
	summarize("shard-1m", walls)
	return o, nil
}

// check fails when the run did not conserve the mean of the initial
// vector, and returns a digest of the final state.
func (s *shardSetup) check(st *gossip.FlatState, o *outcome) (uint64, error) {
	o.attempted++
	h := fnv.New64a()
	var sum float64
	var buf [8]byte
	for u := 0; u < st.N(); u++ {
		v := st.Value(u)
		sum += v
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	// Each exchange is exact up to one rounding per endpoint; 10^8 such
	// roundings stay many orders of magnitude inside this tolerance.
	if drift := math.Abs(sum/float64(st.N()) - s.mean0); !(drift < 1e-9) {
		return 0, checkf("mean drifted by %g", drift)
	}
	return h.Sum64(), nil
}

// checkWorkers runs a tenth of the horizon on 1 and on 2 workers and
// fails unless both end in the same state.
func (s *shardSetup) checkWorkers(o *outcome) error {
	var digests [2]uint64
	for i, w := range []int{1, 2} {
		st, eng, err := s.engine(w, nil)
		if err != nil {
			return err
		}
		eng.RunUntil(s.horizon / 10)
		if digests[i], err = s.check(st, o); err != nil {
			return err
		}
	}
	if digests[0] != digests[1] {
		return checkf("final state differs between 1 and 2 workers")
	}
	return nil
}

// traceShard runs the horizon once with the engine's metrics registry
// attached and a span around each RunUntil call, then times the tile hot path's
// parts in isolation.
func traceShard(s *shardSetup, seed uint64, tr *tracer, o *outcome) error {
	reg := metrics.NewRegistry()
	st, eng, err := s.engine(workers, reg)
	if err != nil {
		return err
	}
	root := tr.begin("shard-1m", 0)
	var walls, rates []float64
	s.runHorizon(eng, tr, root, &walls, &rates)
	tr.end(root)
	if _, err := s.check(st, o); err != nil {
		return err
	}
	if err := s.checkWorkers(o); err != nil {
		return err
	}
	snap := reg.Snapshot()
	for _, name := range []string{"sim.shard.events", "sim.shard.boundary.events", "sim.shard.windows", "sim.shard.segments"} {
		o.metrics[name] = float64(snap.Counters[name])
	}
	wall := tr.get(root).dur()
	o.metrics["shard-1m.events_per_s"] = float64(eng.Events()) / (float64(wall) / 1e9)
	o.metrics["residual_frac.shard-1m"] = tr.residual(root)

	o.metrics["graph.fill_ns_per_pair"] = fillNs(s.til, seed)
	ns, err := flatTickNs(s, seed)
	if err != nil {
		return err
	}
	o.metrics["gossip.flat_tick_ns_per_event"] = ns
	o.metrics["rng.poisson_ns"] = poissonNs(seed)
	return nil
}
