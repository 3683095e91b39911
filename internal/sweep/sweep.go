// Package sweep runs grids of scenarios — (graph family × size × cut ×
// algorithm × parameter) Monte-Carlo cells — concurrently on a worker
// pool, with results that are bit-identical regardless of the worker
// count.
//
// Determinism contract: the grid expands to an ordered list of units; each
// unit's entire randomness (graph sample, initial vector, trial streams)
// derives from a seed computed by a splitmix64 hash of (root seed, unit
// index) — never from which worker runs it or when. Cells are written into
// a slice indexed by unit, so the report layout is also order-independent.
// The package test proves workers=1 and workers=4 produce byte-identical
// JSON.
//
// Key types: Grid (the axes), Cell, Report, Run. The determinism contract and aggregation semantics are DESIGN.md §7; the reproduction pipeline (§9) runs its grids through this engine.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sparsecut/internal/avgtime"
	"sparsecut/internal/metrics"
	"sparsecut/internal/scenario"
	"sparsecut/internal/stats"
)

// Grid is a scenario template plus axes to sweep. Empty axes keep the
// base spec's value; non-empty axes multiply into a cartesian product in
// the field order below (families outermost, rates innermost).
type Grid struct {
	// Base supplies every field the axes do not override.
	Base scenario.Spec `json:"base"`
	// Families sweeps Graph.Family.
	Families []string `json:"families,omitempty"`
	// Ns sweeps the total node count. Setting it clears the base spec's
	// derived shape fields (n1/n2, rows/cols, dim, levels) so each size
	// re-derives its shape.
	Ns []int `json:"ns,omitempty"`
	// Cuts sweeps Graph.Cut.
	Cuts []int `json:"cuts,omitempty"`
	// Algos sweeps Algo.Name.
	Algos []string `json:"algos,omitempty"`
	// Alphas sweeps the convex mixing parameter.
	Alphas []float64 `json:"alphas,omitempty"`
	// EpochCs sweeps Algorithm A's epoch constant C.
	EpochCs []float64 `json:"epoch_cs,omitempty"`
	// Weights sweeps Algorithm A's swap-weight rule.
	Weights []string `json:"weights,omitempty"`
	// Rates sweeps the clock-rate model (uniform, nodeclock, random) —
	// the timing-model robustness axis of experiment E13.
	Rates []string `json:"rates,omitempty"`
}

// Unit is one fully-specified cell of the expanded grid.
type Unit struct {
	// Index is the unit's position in expansion order; it determines the
	// unit seed and the cell's slot in the report.
	Index int
	// Spec is the cell's scenario with the unit seed already planted.
	Spec scenario.Spec
}

// MaxUnits caps the unit count a grid may expand to. The grids this
// repository runs have at most a few hundred units; the cap keeps a short
// grid file (four 400-entry axes are 2.56·10^10 units) from asking for an
// allocation no host can make. cmd/sweep caps each axis flag's list at it
// too, before building the list.
const MaxUnits = 1 << 16

// Expand turns the grid into its ordered unit list, planting the per-unit
// seeds derived from root. Axis values are validated against the scenario
// registry up front so a typo fails before any simulation runs. A grid
// expanding to more than MaxUnits units is an error.
func Expand(g Grid, root uint64) ([]Unit, error) {
	orOne := func(k int) int {
		if k == 0 {
			return 1
		}
		return k
	}
	total := 1
	for _, k := range []int{len(g.Families), len(g.Ns), len(g.Cuts), len(g.Algos),
		len(g.Alphas), len(g.EpochCs), len(g.Weights), len(g.Rates)} {
		// total ≤ MaxUnits here, so the check cannot overflow.
		if total > MaxUnits/orOne(k) {
			return nil, fmt.Errorf("sweep: grid expands to more than %d units", MaxUnits)
		}
		total *= orOne(k)
	}
	units := make([]Unit, 0, total)
	for fi := 0; fi < orOne(len(g.Families)); fi++ {
		for ni := 0; ni < orOne(len(g.Ns)); ni++ {
			for ci := 0; ci < orOne(len(g.Cuts)); ci++ {
				for ai := 0; ai < orOne(len(g.Algos)); ai++ {
					for pi := 0; pi < orOne(len(g.Alphas)); pi++ {
						for ei := 0; ei < orOne(len(g.EpochCs)); ei++ {
							for wi := 0; wi < orOne(len(g.Weights)); wi++ {
								for ri := 0; ri < orOne(len(g.Rates)); ri++ {
									s := g.Base
									if len(g.Families) > 0 {
										s.Graph.Family = g.Families[fi]
									}
									if len(g.Ns) > 0 {
										s.Graph.N = g.Ns[ni]
										s.Graph.N1, s.Graph.N2, s.Graph.Blocks = 0, 0, 0
									}
									if len(g.Cuts) > 0 {
										s.Graph.Cut = g.Cuts[ci]
									}
									if len(g.Algos) > 0 {
										s.Algo.Name = g.Algos[ai]
									}
									if len(g.Alphas) > 0 {
										s.Algo.Alpha = g.Alphas[pi]
									}
									if len(g.EpochCs) > 0 {
										s.Algo.EpochC = g.EpochCs[ei]
									}
									if len(g.Weights) > 0 {
										s.Algo.Weight = g.Weights[wi]
									}
									if len(g.Rates) > 0 {
										s.Rates = g.Rates[ri]
									}
									index := len(units)
									s.Seed = unitSeed(root, index)
									units = append(units, Unit{Index: index, Spec: s})
								}
							}
						}
					}
				}
			}
		}
	}
	// Validate every unit's family now (cheap — no graph construction):
	// Resolve would catch a typo later, but failing at expansion keeps a
	// long sweep from dying halfway through. This covers both the
	// Families axis and the base spec's family (an empty base family is
	// resolved to the default by withDefaults, so only non-empty names
	// are checked).
	for _, u := range units {
		if f := u.Spec.Graph.Family; f != "" {
			if _, ok := scenario.Lookup(f); !ok {
				return nil, fmt.Errorf("sweep: unit %d: unknown family %q", u.Index, f)
			}
		}
	}
	return units, nil
}

// unitSeed hashes (root, index) with the splitmix64 finalizer: every unit
// gets a stable, well-separated seed independent of scheduling.
func unitSeed(root uint64, index int) uint64 {
	z := root + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // Spec.Seed zero means "use the default"; keep it explicit
	}
	return z
}

// Config controls a sweep run.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS). The results do not
	// depend on it.
	Workers int
	// Seed is the root seed (default: the grid base spec's seed, then 1).
	Seed uint64
	// OnCell, when set, is called once per finished cell, in completion
	// order (which is scheduling-dependent — use it for progress display
	// only, never for results).
	OnCell func(Cell)
	// Metrics, when set, receives the sweep's telemetry: the run's
	// started, completed and errored cell counts and a per-cell wall-time
	// histogram (sweep.cell.wall_ns). Like OnCell it is observation only —
	// the report is byte-identical with or without it. Use one registry
	// per Run: a second Run rebinds the cell counts to its own.
	Metrics *metrics.Registry
	// Cache, when set, shares estimates with every other Run given the
	// same Cache: a unit whose resolved spec, unit seed included, equals
	// one already estimated reuses that result. The report is
	// byte-identical with or without it; nil estimates every unit.
	Cache *Cache
}

// Cache is a single-flight map from a resolved spec to its finished
// estimate. The first unit to ask for a spec estimates it; units asking
// for an equal spec meanwhile wait for that result, and later ones read
// it. The results are shared read-only. The zero value is an empty cache,
// safe for concurrent use. It keeps every result it holds, so scope it to
// one batch of related runs.
type Cache struct {
	mu sync.Mutex
	m  map[scenario.Spec]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	res  avgtime.Result
	err  error
}

// estimate returns r's estimate, computed by this unit or by another one
// asking for an equal spec.
func (c *Cache) estimate(r *scenario.Resolved) (avgtime.Result, error) {
	if c == nil {
		return r.Estimate()
	}
	key := r.EstimateKey()
	c.mu.Lock()
	if c.m == nil {
		c.m = map[scenario.Spec]*cacheEntry{}
	}
	e := c.m[key]
	if e == nil {
		e = &cacheEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.res, e.err = r.Estimate() })
	return e.res, e.err
}

// Run expands the grid and executes every unit on the worker pool.
// Per-cell failures (for example an unsatisfiable random family) are
// recorded in the cell's Error field rather than aborting the sweep.
func Run(grid Grid, cfg Config) (*Report, error) {
	root := cfg.Seed
	if root == 0 {
		root = grid.Base.Seed
	}
	if root == 0 {
		root = 1
	}
	units, err := Expand(grid, root)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	// A nil registry ignores the readers and hands out a nil histogram
	// whose Observe no-ops, so the disabled path needs no branches here.
	var started, completed, errored atomic.Int64
	cfg.Metrics.CounterFunc("sweep.cells.started", started.Load)
	cfg.Metrics.CounterFunc("sweep.cells.completed", completed.Load)
	cfg.Metrics.CounterFunc("sweep.cells.errored", errored.Load)
	wall := cfg.Metrics.Histogram("sweep.cell.wall_ns")

	cells := make([]Cell, len(units))
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				u := units[i]
				started.Add(1)
				begin := time.Now()
				// Label the unit's CPU samples by scenario so a -cpuprofile
				// of a mixed sweep attributes time per family and algorithm.
				pprof.Do(context.Background(), unitLabels(u), func(context.Context) {
					cells[i] = runUnit(u, cfg.Cache)
				})
				wall.Observe(time.Since(begin).Nanoseconds())
				completed.Add(1)
				if cells[i].Error != "" {
					errored.Add(1)
				}
				if cfg.OnCell != nil {
					mu.Lock()
					cfg.OnCell(cells[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range units {
		work <- i
	}
	close(work)
	wg.Wait()

	return &Report{Grid: grid, Seed: root, Cells: cells}, nil
}

// unitLabels builds the pprof label set identifying a unit's scenario in
// CPU profiles. Empty fields mean "registry default", which Resolve fills
// in later; label them as such rather than resolving twice.
func unitLabels(u Unit) pprof.LabelSet {
	fam, algo := u.Spec.Graph.Family, u.Spec.Algo.Name
	if fam == "" {
		fam = "default"
	}
	if algo == "" {
		algo = "default"
	}
	return pprof.Labels("sweep_family", fam, "sweep_algo", algo)
}

// runUnit resolves and estimates one cell, through cache when it is set.
// All errors are folded into the cell so the sweep's shape is stable.
func runUnit(u Unit, cache *Cache) Cell {
	cell := Cell{Index: u.Index, Label: u.Spec.Label(), Spec: u.Spec, Seed: u.Spec.Seed}
	r, err := u.Spec.Resolve()
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	cell.Spec = r.Spec // normalized: every default made explicit
	cell.Label = r.Spec.Label()
	if r.Implicit != nil {
		// Sharded cells never materialise the graph; describe it from the
		// implicit representation instead.
		cell.Nodes = r.Implicit.NumNodes()
		cell.Edges = int(r.Implicit.NumEdges())
		cell.CutSize = len(r.Implicit.Tiling().Boundary)
	} else {
		cell.Nodes = r.Graph.NumNodes()
		cell.Edges = r.Graph.NumEdges()
		if r.Partition != nil {
			cell.CutSize = r.Partition.CutSize()
		}
	}
	res, err := cache.estimate(r)
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	var w stats.Welford
	for _, l := range res.PerTrial {
		w.Add(l)
	}
	cell.Trials = len(res.PerTrial)
	cell.Censored = res.Censored
	cell.Events = res.Events
	cell.Tav = res.Tav
	cell.Mean = w.Mean()
	cell.StdDev = w.StdDev()
	cell.CI95 = w.CI95()
	cell.Min = w.Min()
	cell.Max = w.Max()
	if q, err := stats.Quantile(res.PerTrial, 0.25); err == nil {
		cell.Q25 = q
	}
	if q, err := stats.Quantile(res.PerTrial, 0.5); err == nil {
		cell.Median = q
	}
	if q, err := stats.Quantile(res.PerTrial, 0.75); err == nil {
		cell.Q75 = q
	}
	return cell
}
