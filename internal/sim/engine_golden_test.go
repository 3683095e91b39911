package sim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sparsecut/internal/core"
	"sparsecut/internal/gossip"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
	"sparsecut/internal/sim"
)

// TestEngineGoldenDigest pins the per-event engine for each kernel on a
// 32+32 dumbbell with one cut edge, under uniform and node-clock rates:
// RunUntil, the engine's one loop, and the eager reference loop RunTracked
// (export_test.go). The horizon is about 40,000 events, so the eager loop
// passes the 2^16-update moment resync; the cross-cut imbalance keeps the
// variance far above the float floor for vanilla, convex and push-sum. The
// FNV-64a digest covers, per kernel:
//
//   - 50 chained RunUntil steps: Now, Events, Variance bits and the values;
//   - 200 chained eager RunTracked{MaxTime} steps;
//   - one eager RunTracked with the averaging-time estimator's levels and
//     quiet period: LastExceed, Censored and Events.
//
// A's swap listener has a digest of its own, TestEngineSwapListenerDigest.
//
// The constants were recorded before the untracked batch loop and the
// event-time arguments left the engine, and kept when the eager loop moved
// into the tests (A's two were re-recorded when its listener phase moved
// out); a change to the draw order, the fused kernels or the resync
// cadence changes them.
func TestEngineGoldenDigest(t *testing.T) {
	g, part, x0 := goldenDumbbell(t)
	algs := []struct {
		name string
		make func() (gossip.Algorithm, error)
	}{
		{"vanilla", func() (gossip.Algorithm, error) { return gossip.NewVanilla(g, x0) }},
		{"convex", func() (gossip.Algorithm, error) { return gossip.NewConvex(g, x0, 0.73) }},
		{"pushsum", func() (gossip.Algorithm, error) { return gossip.NewPushSum(g, x0, rng.New(21)) }},
		{"A", func() (gossip.Algorithm, error) { return core.New(g, x0, core.WithPartition(part)) }},
	}
	clocks := goldenClocks(g)
	want := map[string]uint64{
		"vanilla/uniform":   0xa1b11815236f7882,
		"vanilla/nodeclock": 0x1df26806c1a9401d,
		"convex/uniform":    0x2d613ee286174035,
		"convex/nodeclock":  0x23a846c3857ebd75,
		"pushsum/uniform":   0xc9ea10c6813ace7f,
		"pushsum/nodeclock": 0x8dee33daaa10299b,
		"A/uniform":         0x4ac12fcaf773755e,
		"A/nodeclock":       0xbabd457b7d8611,
	}
	for _, ck := range clocks {
		for _, alg := range algs {
			name := alg.name + "/" + ck.name
			t.Run(name, func(t *testing.T) {
				h := fnv.New64a()
				var buf [8]byte
				put := func(v uint64) {
					binary.LittleEndian.PutUint64(buf[:], v)
					h.Write(buf[:])
				}
				putF := func(v float64) { put(math.Float64bits(v)) }
				engine := func(seed uint64, kern sim.TickKernel) *sim.Engine {
					return goldenEngine(t, g, ck.rates, seed, kern)
				}
				fresh := func() gossip.Algorithm {
					a, err := alg.make()
					if err != nil {
						t.Fatal(err)
					}
					return a
				}

				a := fresh()
				eng := engine(3, a)
				for k := 1; k <= 50; k++ {
					now, events := eng.RunUntil(ck.horizon * float64(k) / 50)
					putF(now)
					put(uint64(events))
					putF(a.Variance())
					for _, v := range a.Values() {
						putF(v)
					}
				}

				a = fresh()
				eng = engine(4, a)
				for k := 1; k <= 200; k++ {
					eng.RunTracked(sim.Tracked{MaxTime: ck.horizon * float64(k) / 200})
					putF(eng.Now())
					put(uint64(eng.Events()))
					putF(a.Variance())
				}
				for _, v := range a.Values() {
					putF(v)
				}

				a = fresh()
				eng = engine(5, a)
				var0 := a.Variance()
				quiet := 1.0
				if sc, ok := a.(*core.SparseCutAveraging); ok {
					quiet = 2 * sc.EpochDuration()
				}
				threshold := math.Exp(-2)
				res := eng.RunTracked(sim.Tracked{
					ExceedLevel: threshold * var0,
					StopLevel:   threshold * 1e-8 * var0,
					Quiet:       quiet,
					MaxTime:     10 * ck.horizon,
				})
				putF(res.LastExceed)
				if res.Censored {
					put(1)
				} else {
					put(0)
				}
				put(uint64(eng.Events()))

				if got := h.Sum64(); got != want[name] {
					t.Errorf("digest %#x, want %#x", got, want[name])
				}
			})
		}
	}
}

// TestEngineSwapListenerDigest pins A's swap listener on the per-event
// engine, on TestEngineGoldenDigest's dumbbell and clocks: one RunUntil to
// the horizon with a listener installed, digesting each swap's Index,
// VarBefore and VarAfter, then the final values. The variances are exact
// resync reads on the lazy path, so a change to the resync or to the
// point at which the listener reads them changes the constants.
func TestEngineSwapListenerDigest(t *testing.T) {
	g, part, x0 := goldenDumbbell(t)
	want := map[string]uint64{
		"uniform":   0x488e8e9d698b36ea,
		"nodeclock": 0xbb4b36d50d6e873d,
	}
	for _, ck := range goldenClocks(g) {
		t.Run(ck.name, func(t *testing.T) {
			h := fnv.New64a()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			putF := func(v float64) { put(math.Float64bits(v)) }
			swaps := 0
			a, err := core.New(g, x0, core.WithPartition(part), core.WithSwapListener(func(ev core.SwapEvent) {
				swaps++
				put(uint64(ev.Index))
				putF(ev.VarBefore)
				putF(ev.VarAfter)
			}))
			if err != nil {
				t.Fatal(err)
			}
			goldenEngine(t, g, ck.rates, 6, a).RunUntil(ck.horizon)
			if swaps < 5 {
				t.Fatalf("%d swaps by t=%v; want at least 5", swaps, ck.horizon)
			}
			for _, v := range a.Values() {
				putF(v)
			}
			if got := h.Sum64(); got != want[ck.name] {
				t.Errorf("digest %#x, want %#x", got, want[ck.name])
			}
		})
	}
}

// goldenDumbbell is the golden digests' workload: a 32+32 dumbbell with one
// cut edge, and standard normal values with 4 added on side 1.
func goldenDumbbell(t *testing.T) (*graph.Graph, *graph.Partition, []float64) {
	t.Helper()
	g, part, err := graph.Dumbbell(32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	x0 := gossip.GaussianRandom(rng.New(17), g.NumNodes())
	for i := range x0 {
		if part.SideOf(graph.NodeID(i)) == graph.Side1 {
			x0[i] += 4
		}
	}
	return g, part, x0
}

type goldenClock struct {
	name    string
	rates   []float64 // nil: uniform rates
	horizon float64   // about 40,000 events at the total rate
}

func goldenClocks(g *graph.Graph) []goldenClock {
	return []goldenClock{
		{"uniform", nil, 40},
		{"nodeclock", sim.NodeClockRates(g), 640},
	}
}

func goldenEngine(t *testing.T, g *graph.Graph, rates []float64, seed uint64, kern sim.TickKernel) *sim.Engine {
	t.Helper()
	opts := []sim.Option{sim.WithSeed(seed)}
	if rates != nil {
		opts = append(opts, sim.WithRates(rates))
	}
	eng, err := sim.NewEngine(g, kern, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
