package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// shardFixture builds an implicit graph, its tiling and a FlatState over
// a deterministic initial vector.
func shardFixture(t *testing.T, ig *graph.Implicit, seed uint64) (*graph.Tiling, *gossip.FlatState) {
	t.Helper()
	til := ig.Tiling()
	r := rng.New(seed)
	x0 := make([]float64, ig.NumNodes())
	for i := range x0 {
		x0[i] = r.Float64()*4 - 1
	}
	fs, err := gossip.NewFlatState(x0, til.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	return til, fs
}

// TestShardEngineWorkerDeterminism is the engine's core promise: for a
// fixed spec and seed the full value vector after a run is byte-identical
// for any worker count.
func TestShardEngineWorkerDeterminism(t *testing.T) {
	ig, err := graph.ImplicitRingOfCliques(6, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	var refEvents int64
	for _, workers := range []int{1, 2, 4, 13} {
		til, fs := shardFixture(t, ig, 21)
		e := NewShardEngine(til, fs, rng.New(77), ShardConfig{Workers: workers, Window: 0.25})
		e.RunUntil(3)
		got := make([]float64, ig.NumNodes())
		for i := range got {
			got[i] = fs.Value(i)
		}
		if ref == nil {
			ref, refEvents = got, e.Events()
			continue
		}
		if e.Events() != refEvents {
			t.Fatalf("workers=%d: %d events, want %d", workers, e.Events(), refEvents)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: value %d diverged: %v vs %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestShardEngineWindowInvariantsAndMetrics checks event accounting:
// telemetry internal + boundary counts must equal Events(), and the
// event volume must be near rate·|E|·T.
func TestShardEngineWindowInvariantsAndMetrics(t *testing.T) {
	ig, err := graph.ImplicitDumbbell(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	til, fs := shardFixture(t, ig, 4)
	reg := metrics.NewRegistry()
	var barriers int
	e := NewShardEngine(til, fs, rng.New(9), ShardConfig{
		Window:   0.5,
		Metrics:  reg,
		Observer: func(float64, int64) { barriers++ },
	})
	const horizon = 8.0
	e.RunUntil(horizon)
	internal := reg.Counter("sim.shard.events").Value()
	boundary := reg.Counter("sim.shard.boundary.events").Value()
	if internal+boundary != e.Events() {
		t.Fatalf("telemetry %d+%d != Events %d", internal, boundary, e.Events())
	}
	if w := reg.Counter("sim.shard.windows").Value(); int(w) != barriers || barriers != int(horizon/0.5) {
		t.Fatalf("windows counter %d, observer barriers %d, want %d", w, barriers, int(horizon/0.5))
	}
	// Poisson volume: mean |E|·T, sd sqrt of that.
	mean := float64(ig.NumEdges()) * horizon
	if d := math.Abs(float64(e.Events()) - mean); d > 6*math.Sqrt(mean) {
		t.Fatalf("event volume %d too far from %f", e.Events(), mean)
	}
	if e.Now() != horizon {
		t.Fatalf("Now() = %v, want %v", e.Now(), horizon)
	}
}

// TestShardEngineTrackedConverges runs the tracked stop rule on a
// dumbbell: variance must decay below the stop level, the last-exceedance
// must land inside the run, and the result must not be censored.
func TestShardEngineTrackedConverges(t *testing.T) {
	ig, err := graph.ImplicitDumbbell(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	til := ig.Tiling()
	x0 := gossip.CutIndicatorPrefix(ig.NumNodes(), ig.SplitPoint())
	fs, err := gossip.NewFlatState(x0, til.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	var0 := fs.Variance()
	e := NewShardEngine(til, fs, rng.New(3), ShardConfig{Window: 0.25})
	res := e.RunTracked(Tracked{
		ExceedLevel: math.Exp(-2) * var0,
		StopLevel:   1e-8 * math.Exp(-2) * var0,
		Quiet:       2,
		MaxTime:     10000,
	})
	if res.Censored {
		t.Fatal("run censored")
	}
	if res.LastExceed <= 0 || res.LastExceed >= e.Now() {
		t.Fatalf("LastExceed %v outside (0, %v)", res.LastExceed, e.Now())
	}
	if v := fs.Variance(); v >= math.Exp(-2)*var0 {
		t.Fatalf("final variance %v did not drop below the exceed level", v)
	}
}

// TestShardEngineHotPathAllocs pins the zero-allocation contract of the
// single-worker hot path: advancing an already-running engine must not
// allocate.
func TestShardEngineHotPathAllocs(t *testing.T) {
	ig, err := graph.ImplicitDumbbell(64, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	til, fs := shardFixture(t, ig, 8)
	e := NewShardEngine(til, fs, rng.New(12), ShardConfig{Window: 0.5})
	e.RunUntil(1) // warm up: first windows, RNG buffers
	allocs := testing.AllocsPerRun(10, func() {
		e.RunUntil(e.Now() + 0.5)
	})
	if allocs != 0 {
		t.Fatalf("sharded hot path allocates %.1f per window, want 0", allocs)
	}
}

// TestShardEngineGoldenDigest pins the sharded hot path's output bytes on
// clique tiles larger than 2^16 nodes: the FNV-64a digest of the final
// values (and the event count) of a seeded run must equal the constants
// below, which were recorded before the clique sampler's draws were
// inlined and before FlatState dropped its per-tile moment caches. The
// draws and the pair arithmetic define the trajectory; the barrier's
// moment reads must never feed back into it.
func TestShardEngineGoldenDigest(t *testing.T) {
	const (
		side       = 1<<17 + 3
		wantDigest = uint64(0x488070e666fb63cc)
		wantEvents = int64(1030344)
	)
	ig, err := graph.ImplicitDumbbell(side, side, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		til, fs := shardFixture(t, ig, 31)
		e := NewShardEngine(til, fs, rng.New(32), ShardConfig{Workers: workers, Window: 1e-5})
		e.RunUntil(6e-5)
		h := fnv.New64a()
		var buf [8]byte
		for u := 0; u < fs.N(); u++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(fs.Value(u)))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != wantDigest || e.Events() != wantEvents {
			t.Errorf("workers=%d: digest %#x after %d events, want %#x after %d",
				workers, got, e.Events(), wantDigest, wantEvents)
		}
	}
}
