package main

import (
	"math"
	"time"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// Layer probes time one layer's inner operation in isolation, on the data
// the workload that exercises it uses. The engines call these operations
// from their own loops, where the benchmark cannot put a span; until the
// program carries its own tracing, a probe is how its cost is known.

// probeRounds is the number of timed rounds a probe takes the median of.
const probeRounds = 5

// perOp times op over rounds of n calls and returns the median
// nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	samples := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// sink keeps probe results observable so the compiler cannot drop the
// measured calls.
var sink float64

// batchChunk is the batched engine's chunk length: 256 events per replica
// per bridge draw.
const batchChunk = 256

// batchKernelNs times an ensemble's TickChunkTracked on the sweep grid's
// largest dumbbell, 16 replicas, one 256-edge chunk at a time, and returns
// nanoseconds per event.
func batchKernelNs(algo string, seed uint64) (float64, error) {
	n, cut := sweepGrid.Ns[0], sweepGrid.Cuts[0]
	g, part, err := graph.Dumbbell(n/2, n-n/2, cut)
	if err != nil {
		return 0, err
	}
	x0 := gossip.CutIndicator(part)
	const replicas = 16
	r := rng.New(seed)
	var kern sim.BatchKernel
	switch algo {
	case "vanilla":
		kern, err = gossip.NewVanillaEnsemble(g, x0, replicas)
	case "convex":
		kern, err = gossip.NewConvexEnsemble(g, x0, sweepGrid.Base.Algo.Alpha, replicas)
	case "pushsum":
		streams := make([]*rng.RNG, replicas)
		for i := range streams {
			streams[i] = r.Split()
		}
		kern, err = gossip.NewPushSumEnsemble(g, x0, streams)
	}
	if err != nil {
		return 0, err
	}
	edges := make([]graph.EdgeID, batchChunk)
	for i := range edges {
		edges[i] = graph.EdgeID(r.Intn(g.NumEdges()))
	}
	level := kern.ReplicaVariance(0) * math.Exp(-2)
	const calls = 2000
	ns := perOp(calls, func(i int) {
		_, v := kern.TickChunkTracked(i%replicas, edges, level)
		sink += v
	})
	return ns / batchChunk, nil
}

// gammaIntNs times the batched engine's time bridge: one GammaInt draw of
// the chunk length.
func gammaIntNs(seed uint64) float64 {
	r := rng.New(seed)
	return perOp(1_000_000, func(int) { sink += r.GammaInt(batchChunk) })
}

// fillNs times Tile.Fill on the 10^6-node dumbbell's first clique in
// 256-pair chunks, and returns nanoseconds per endpoint pair.
func fillNs(til *graph.Tiling, seed uint64) float64 {
	r := rng.New(seed)
	us, vs := make([]int32, batchChunk), make([]int32, batchChunk)
	t := &til.Tiles[0]
	return perOp(20_000, func(int) { t.Fill(r, us, vs) }) / batchChunk
}

// flatTickNs times FlatState.TickTile on pre-drawn pairs of the first
// tile, and returns nanoseconds per event.
func flatTickNs(s *shardSetup, seed uint64) (float64, error) {
	st, err := gossip.NewFlatState(s.x0, s.til.Bounds())
	if err != nil {
		return 0, err
	}
	r := rng.New(seed)
	const chunks = 64
	us, vs := make([]int32, chunks*batchChunk), make([]int32, chunks*batchChunk)
	s.til.Tiles[0].Fill(r, us, vs)
	ns := perOp(20_000, func(i int) {
		lo := (i % chunks) * batchChunk
		st.TickTile(0, us[lo:lo+batchChunk], vs[lo:lo+batchChunk])
	})
	sink += st.Variance()
	return ns / batchChunk, nil
}

// poissonNs times the per-segment Poisson draw at the mean the 10^6-node
// run draws it at: each of its two tiles holds half the horizon's events.
func poissonNs(seed uint64) float64 {
	r := rng.New(seed)
	return perOp(1_000_000, func(int) { sink += float64(r.Poisson(shardEvents / 2)) })
}
