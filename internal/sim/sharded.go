package sim

// Sharded PDES engine for million-node single runs (DESIGN.md §13).
//
// The paper's timing model puts an independent rate-1 Poisson clock on
// every edge. Poisson superposition makes that process decomposable: for
// any tiling of the node set, the edge-clock union splits into one
// independent Poisson stream per tile (rate = the tile's internal edge
// count, each firing a uniform internal edge) plus one boundary stream
// (rate = |boundary|, each firing a uniform boundary edge). ShardEngine
// advances the tile streams in parallel inside bounded time windows Δ and
// serialises only the boundary events — conservative PDES whose
// synchronisation points are exactly the boundary firings and window
// barriers, with no rollback. Because the decomposition is exact (not an
// approximation), the simulated process is equidistributed with the
// per-event oracle; the avgtime KS cross-checks pin this.
//
// Determinism: the tiling is a function of the graph alone, each tile
// owns a private RNG stream split from the root in tile order, tiles
// touch disjoint kernel state, and the global variance reduction sums
// per-tile moments in fixed tile order. Worker count only changes which
// goroutine advances which tile, so output is byte-identical for any
// Workers/GOMAXPROCS — the same contract the sweep worker pool gives
// across replicas, now inside one run.
//
// What windowing buys and costs: within a window a tile's internal
// events commute with other tiles' (disjoint state), so only the
// variance *observations* are quantised to barriers. Variance under
// vanilla averaging is monotone non-increasing, so the tracked
// last-exceedance statistic is a single downward level crossing — the
// engine brackets it between consecutive barriers and interpolates,
// bounding the error by Δ.

import (
	"math"
	"sync"
	"sync/atomic"

	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// ShardKernel is the state contract of the sharded engine: per-tile chunk
// ticks that may run concurrently for distinct tiles, single-threaded
// boundary exchanges, and a variance reduction that must be
// deterministic for any worker count. gossip.FlatState implements it for
// vanilla averaging. Only Variance reads moments, so the ticks may write
// values only.
type ShardKernel interface {
	// TickTile applies a chunk of internal exchanges to tile t. Calls for
	// distinct tiles may be concurrent; calls for one tile are ordered.
	TickTile(tile int, us, vs []int32)
	// Exchange applies one boundary exchange. Never concurrent with
	// TickTile.
	Exchange(u, v int32)
	// Variance returns the current global variance (barrier phase only).
	Variance() float64
}

// ShardConfig tunes a ShardEngine.
type ShardConfig struct {
	// Workers caps the tile-advancing goroutines; <= 1 runs inline.
	// Results are byte-identical for any value.
	Workers int
	// Window is the barrier spacing Δ in simulated time. Larger windows
	// amortise barrier cost; smaller windows tighten the tracked-statistic
	// resolution. <= 0 defaults to DefaultWindow.
	Window float64
	// Metrics receives engine telemetry when non-nil (nil = zero cost).
	Metrics *metrics.Registry
	// Observer, when non-nil, is called at every window barrier with the
	// barrier time and cumulative event count.
	Observer func(t float64, events int64)
}

// DefaultWindow is the barrier spacing used when ShardConfig.Window is
// unset: coarse enough to amortise barriers, fine enough that tracked
// times resolve well below the Tav scales the report measures.
const DefaultWindow = 0.5

// shardChunk is the per-tile event chunk size: one Poisson count is
// drawn per tile per segment and consumed through fixed 256-pair
// endpoint buffers — the same chunk geometry as the batched kernels.
const shardChunk = 256

// ShardEngine advances a tiled graph's Poisson edge-clock process.
type ShardEngine struct {
	til  *graph.Tiling
	kern ShardKernel

	tileRNG []*rng.RNG
	us, vs  [][]int32 // per-tile endpoint scratch, len shardChunk

	bRNG         *rng.RNG
	bRate        float64
	nextBoundary float64

	now        float64
	tileEvents []int64 // cumulative per tile, written by the tile's worker
	// events counts the exchanges applied up to the last barrier; boundary,
	// windows and segments count the boundary events, window barriers and
	// timing segments. The goroutine driving the engine writes them; the
	// metrics registry may read them while it runs.
	events, boundary, windows, segments atomic.Int64

	workers int
	window  float64
	observe func(t float64, events int64)

	pool *tilePool
}

// tilePool is a run-scoped worker pool: goroutines are spawned once per
// run and fed timing segments over a channel, so the steady-state hot
// path allocates nothing. Workers pull tile indices from a shared atomic
// counter — pure work stealing; the assignment schedule never affects the
// result because tiles are independent.
type tilePool struct {
	eng  *ShardEngine
	feed chan float64
	wg   sync.WaitGroup
	next atomic.Int64
	w    int
}

func newTilePool(e *ShardEngine, w int) *tilePool {
	p := &tilePool{eng: e, feed: make(chan float64), w: w}
	n := len(e.til.Tiles)
	for g := 0; g < w; g++ {
		go func() {
			for dt := range p.feed {
				for {
					i := int(p.next.Add(1)) - 1
					if i >= n {
						break
					}
					e.advanceTile(i, dt)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// advance runs every tile over a dt-long segment across the pool.
func (p *tilePool) advance(dt float64) {
	p.next.Store(0)
	p.wg.Add(p.w)
	for g := 0; g < p.w; g++ {
		p.feed <- dt
	}
	p.wg.Wait()
}

func (p *tilePool) close() { close(p.feed) }

// NewShardEngine builds an engine over the tiling, driving kern. The RNG
// is consumed to derive one boundary stream plus one stream per tile, in
// fixed order — callers pass a fresh trial stream and must not reuse it.
func NewShardEngine(til *graph.Tiling, kern ShardKernel, r *rng.RNG, cfg ShardConfig) *ShardEngine {
	e := &ShardEngine{
		til:     til,
		kern:    kern,
		workers: cfg.Workers,
		window:  cfg.Window,
		observe: cfg.Observer,
	}
	if e.window <= 0 {
		e.window = DefaultWindow
	}
	e.bRNG = r.Split()
	e.tileRNG = make([]*rng.RNG, len(til.Tiles))
	e.us = make([][]int32, len(til.Tiles))
	e.vs = make([][]int32, len(til.Tiles))
	for i := range til.Tiles {
		e.tileRNG[i] = r.Split()
		e.us[i] = make([]int32, shardChunk)
		e.vs[i] = make([]int32, shardChunk)
	}
	e.tileEvents = make([]int64, len(til.Tiles))
	e.bRate = float64(len(til.Boundary))
	if len(til.Boundary) > 0 {
		e.nextBoundary = e.bRNG.ExpUnit() / e.bRate
	} else {
		e.nextBoundary = math.Inf(1)
	}
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("sim.shard.events", func() int64 {
			// run counts a boundary event into events first, so reading
			// boundary first keeps a concurrent difference from dipping.
			b := e.boundary.Load()
			return e.events.Load() - b
		})
		m.CounterFunc("sim.shard.boundary.events", e.boundary.Load)
		m.CounterFunc("sim.shard.windows", e.windows.Load)
		m.CounterFunc("sim.shard.segments", e.segments.Load)
	}
	return e
}

// Now returns the current simulated time.
func (e *ShardEngine) Now() float64 { return e.now }

// Events returns the total exchanges applied so far.
func (e *ShardEngine) Events() int64 { return e.events.Load() }

// advanceTile draws tile i's Poisson event count for a dt-long segment
// and applies it in fixed-size chunks through the kernel's TickTile.
// Zero-allocation: the endpoint buffers are preallocated per tile.
func (e *ShardEngine) advanceTile(i int, dt float64) {
	t := &e.til.Tiles[i]
	if t.Edges == 0 || dt <= 0 {
		return
	}
	r := e.tileRNG[i]
	k := r.Poisson(float64(t.Edges) * dt)
	e.tileEvents[i] += int64(k)
	us, vs := e.us[i], e.vs[i]
	for k > 0 {
		c := k
		if c > shardChunk {
			c = shardChunk
		}
		t.Fill(r, us[:c], vs[:c])
		e.kern.TickTile(i, us[:c], vs[:c])
		k -= c
	}
}

// advanceTiles advances every tile across [now, now+dt), in parallel when
// a pool is active. Per-tile streams and disjoint kernel state make the
// schedule invisible to the result.
func (e *ShardEngine) advanceTiles(dt float64) {
	if dt <= 0 {
		return
	}
	if e.pool != nil {
		e.pool.advance(dt)
		return
	}
	for i := range e.til.Tiles {
		e.advanceTile(i, dt)
	}
}

// run advances simulated time to maxT, invoking barrier after every
// serialisation point (window barriers and boundary events). barrier
// receives the barrier time and must report whether to keep running.
func (e *ShardEngine) run(maxT float64, barrier func(t float64) bool) {
	if w := min(e.workers, len(e.til.Tiles)); w > 1 {
		e.pool = newTilePool(e, w)
		defer func() {
			e.pool.close()
			e.pool = nil
		}()
	}
	for e.now < maxT {
		wEnd := e.now + e.window
		if wEnd > maxT {
			wEnd = maxT
		}
		// Serve boundary firings inside the window: each is a global
		// synchronisation point — tiles advance to it, the exchange
		// applies, and tracking observes.
		for e.nextBoundary <= wEnd {
			bt := e.nextBoundary
			e.advanceTiles(bt - e.now)
			e.now = bt
			be := e.til.Boundary[e.bRNG.Intn(len(e.til.Boundary))]
			e.kern.Exchange(int32(be.U), int32(be.V))
			e.events.Add(1)
			e.boundary.Add(1)
			e.segments.Add(1)
			e.nextBoundary = bt + e.bRNG.ExpUnit()/e.bRate
			if !barrier(bt) {
				e.finishWindow()
				return
			}
		}
		e.advanceTiles(wEnd - e.now)
		e.now = wEnd
		e.segments.Add(1)
		e.finishWindow()
		if !barrier(wEnd) {
			return
		}
	}
}

// finishWindow folds the tiles' event counts into the total and counts
// the window.
func (e *ShardEngine) finishWindow() {
	events := e.boundary.Load()
	for _, c := range e.tileEvents {
		events += c
	}
	e.events.Store(events)
	e.windows.Add(1)
	if e.observe != nil {
		e.observe(e.now, events)
	}
}

// RunUntil advances simulated time to maxT; it reads no moments.
func (e *ShardEngine) RunUntil(maxT float64) {
	e.run(maxT, func(float64) bool { return true })
}

// RunTracked advances until the Tracked stop rule fires, resolving the
// last-exceedance time of the averaging-time estimator at barrier
// granularity: every barrier reads the kernel's Variance once. Variance
// under the monotone kernels this engine serves is non-increasing, so the
// ExceedLevel crossing is bracketed by two consecutive barrier
// observations and interpolated linearly — an error of at most one
// window.
func (e *ShardEngine) RunTracked(cfg Tracked) TrackedResult {
	var res TrackedResult
	prevT := e.now
	prevV := e.kern.Variance()
	if prevV > cfg.ExceedLevel {
		res.LastExceed = prevT
	}
	e.run(cfg.MaxTime, func(t float64) bool {
		v := e.kern.Variance()
		if v > cfg.ExceedLevel {
			res.LastExceed = t
		} else if prevV > cfg.ExceedLevel {
			// The crossing happened inside (prevT, t]: place it on the
			// chord between the bracketing observations.
			res.LastExceed = prevT + (t-prevT)*(prevV-cfg.ExceedLevel)/(prevV-v)
		}
		prevT, prevV = t, v
		return v >= cfg.StopLevel || t < res.LastExceed+cfg.Quiet
	})
	// Nothing ticks after the last barrier, so prevV is the final variance.
	res.Censored = e.now >= cfg.MaxTime && prevV >= cfg.StopLevel
	return res
}
