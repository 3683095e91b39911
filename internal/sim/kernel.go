package sim

import (
	"math"
	"math/bits"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TickKernel is the fused fast path of the simulator. A Handler that also
// implements TickKernel lets the engine drive it in batches — event
// sampling stays inline in the engine (no scheduler call per event), and
// the algorithm's per-event update runs in one monomorphic loop per batch
// instead of one virtual dispatch per event. The kernel methods must apply
// exactly the same update as HandleTick: the engine guarantees that for any
// seed the fused run produces bit-identical trajectories to the HandleTick
// path, and the package tests of the algorithms enforce it.
type TickKernel interface {
	// TickEdges applies the algorithm's update for a batch of ticks:
	// edges[k] ticked at times[k], in order. len(times) == len(edges).
	TickEdges(edges []graph.EdgeID, times []float64)
	// TickEdgeVar applies a single tick and returns the resulting
	// population variance of the value vector — one moment read per event,
	// for tracked runs (averaging-time estimation).
	TickEdgeVar(e graph.EdgeID, t float64) float64
	// Variance returns the current population variance without ticking.
	Variance() float64
}

// batchSize is the number of events sampled ahead of each fused kernel
// call. Scratch cost is two small arrays per engine; larger batches stop
// paying once the virtual-dispatch amortisation is negligible.
const batchSize = 256

// kernel reports whether the fused fast path applies: the handler
// implements TickKernel and no per-event observers are registered (the
// empty-observer fast path).
func (e *Engine) kernel() (TickKernel, bool) {
	if len(e.observers) != 0 {
		return nil, false
	}
	k, ok := e.handler.(TickKernel)
	return k, ok
}

func (e *Engine) ensureBatch() {
	if e.batchE == nil {
		e.batchE = make([]graph.EdgeID, batchSize)
		e.batchT = make([]float64, batchSize)
	}
}

// fillUntil samples up to max events into the batch scratch, advancing the
// simulated clock, stopping after the first event whose time reaches maxT
// (that event is included, matching Run(Until(maxT)) which tests the stop
// condition before each event, not after; pass maxT = +Inf for a pure
// event-count fill). It returns the number of events sampled.
//
// This is the single fused sampling loop: the global-clock draws are
// inlined — ziggurat fast path + Lemire pick replicated bit-for-bit in
// exactly the draw order of globalScheduler.next() — so fused and generic
// runs consume identical random streams (the kernel equivalence tests
// enforce this).
func (e *Engine) fillUntil(max int, maxT float64) int {
	n := 0
	gs := e.sched
	r, inv, now := gs.r, gs.invTotal, gs.now
	bound := uint64(gs.numEdges)
	uniform, al := gs.uniform, gs.alias
	for n < max && now < maxT {
		// Inline ziggurat common case (rng.ExpUnit), shared slow
		// finisher on the rare branch.
		u := r.Uint64()
		g, okFast := rng.ZigAccept(u)
		if !okFast {
			g = r.ExpUnitSlow(u)
		}
		now += g * inv
		e.batchT[n] = now
		if uniform {
			// Inline Lemire pick (rng.Intn), shared rejection finisher.
			hi, lo := bits.Mul64(r.Uint64(), bound)
			if lo < bound {
				hi = r.IntnSlow(hi, lo, bound)
			}
			e.batchE[n] = graph.EdgeID(hi)
		} else {
			e.batchE[n] = graph.EdgeID(al.pick(r))
		}
		n++
	}
	gs.now = now
	if n > 0 {
		e.now = e.batchT[n-1]
	}
	return n
}

// RunEvents processes events until the cumulative event count reaches n —
// semantically identical to Run(MaxEvents(n)) — taking the fused kernel
// fast path when available.
func (e *Engine) RunEvents(n int64) (t float64, events int64) {
	k, ok := e.kernel()
	if !ok {
		return e.Run(MaxEvents(n))
	}
	e.ensureBatch()
	for e.events < n {
		b := e.fillUntil(int(min(n-e.events, batchSize)), math.Inf(1))
		k.TickEdges(e.batchE[:b], e.batchT[:b])
		e.events += int64(b)
	}
	return e.now, e.events
}

// RunUntil processes events until simulated time reaches maxT —
// semantically identical to Run(Until(maxT)) — taking the fused kernel
// fast path when available.
func (e *Engine) RunUntil(maxT float64) (t float64, events int64) {
	k, ok := e.kernel()
	if !ok {
		return e.Run(Until(maxT))
	}
	e.ensureBatch()
	for e.now < maxT {
		b := e.fillUntil(batchSize, maxT)
		k.TickEdges(e.batchE[:b], e.batchT[:b])
		e.events += int64(b)
	}
	return e.now, e.events
}

// Tracked configures RunTracked. The levels are absolute variances (the
// caller scales its ratio thresholds by varX(0) once), so the loop runs
// division-free.
type Tracked struct {
	// ExceedLevel: a post-tick variance above this records an exceedance.
	ExceedLevel float64
	// StopLevel: the run may stop once the variance is below this and the
	// quiet period has passed since the last exceedance.
	StopLevel float64
	// Quiet is the minimum simulated time since the last exceedance before
	// stopping.
	Quiet float64
	// MaxTime hard-caps the run.
	MaxTime float64
}

// TrackedResult reports a RunTracked outcome.
type TrackedResult struct {
	// LastExceed is the time of the last event whose post-tick variance
	// exceeded ExceedLevel (0 if none did).
	LastExceed float64
	// Censored is set when the run ended at MaxTime still at or above
	// StopLevel.
	Censored bool
}

// RunTracked drives the engine's handler — which must implement
// TickKernel, with no observers registered — while tracking the
// last-exceedance statistic of the averaging-time estimator inline: per
// event it costs one kernel call and two float compares — no closures, no
// second variance read. The stop rule matches the estimator's: stop at
// MaxTime, or once the variance is below StopLevel and Quiet time has
// passed since the last exceedance. It returns ok = false (running
// nothing) when the fast path does not apply, so callers fall back to the
// generic Run loop rather than silently skipping observers.
func (e *Engine) RunTracked(cfg Tracked) (res TrackedResult, ok bool) {
	k, ok := e.kernel()
	if !ok {
		return TrackedResult{}, false
	}
	v := k.Variance()
	lastExceed := 0.0
	for {
		if e.now >= cfg.MaxTime {
			break
		}
		if v < cfg.StopLevel && e.now >= lastExceed+cfg.Quiet {
			break
		}
		edge, at := e.sched.next()
		e.now = at
		v = k.TickEdgeVar(edge, at)
		if v > cfg.ExceedLevel {
			lastExceed = at
		}
		e.events++
	}
	return TrackedResult{
		LastExceed: lastExceed,
		Censored:   e.now >= cfg.MaxTime && v >= cfg.StopLevel,
	}, true
}
