package sim

import (
	"math/bits"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TickKernel is the simulator's per-event contract: an algorithm's update
// rule, applied once per edge tick. The engine samples events inline (no
// scheduler call per event) and hands them to TickEdges in batches, so the
// update runs in one monomorphic loop per batch instead of one virtual
// dispatch per event. TickEdges and TickEdgeVar must leave bit-identical
// values for the same event sequence; the package tests of the algorithms
// pin both to a per-event reference loop over the unfused update rule.
type TickKernel interface {
	// TickEdges applies the algorithm's update for a batch of ticks, in
	// order.
	TickEdges(edges []graph.EdgeID)
	// TickEdgeVar applies a single tick and returns the resulting
	// population variance of the value vector — one moment read per event,
	// for tracked runs (averaging-time estimation).
	TickEdgeVar(e graph.EdgeID) float64
	// Variance returns the current population variance without ticking.
	Variance() float64
}

// batchSize is the number of events sampled ahead of each fused kernel
// call. Scratch cost is one small array per engine; larger batches stop
// paying once the virtual-dispatch amortisation is negligible.
const batchSize = 256

// fillUntil samples up to batchSize events into the batch scratch,
// advancing the simulated clock, stopping after the first event whose time
// reaches maxT (that event is included: like RunTracked, the loop tests
// the clock before each event, not after). It returns the number of events
// sampled.
//
// This is the single fused sampling loop: the global-clock draws are
// inlined — ziggurat fast path + Lemire pick replicated bit-for-bit in
// exactly the draw order of globalScheduler.next() — so the batched and
// per-event loops consume identical random streams (the kernel equivalence
// tests enforce this).
func (e *Engine) fillUntil(maxT float64) int {
	n := 0
	gs := e.sched
	r, inv, now := gs.r, gs.invTotal, gs.now
	bound := uint64(gs.numEdges)
	uniform, al := gs.uniform, gs.alias
	for n < batchSize && now < maxT {
		// Inline ziggurat common case (rng.ExpUnit), shared slow
		// finisher on the rare branch.
		u := r.Uint64()
		g, okFast := rng.ZigAccept(u)
		if !okFast {
			g = r.ExpUnitSlow(u)
		}
		now += g * inv
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
	gs.now, e.now = now, now
	return n
}

// RunUntil processes events in fused batches until simulated time reaches
// maxT: the last event processed is the first at or past maxT.
func (e *Engine) RunUntil(maxT float64) (t float64, events int64) {
	if e.batchE == nil {
		e.batchE = make([]graph.EdgeID, batchSize)
	}
	for e.now < maxT {
		b := e.fillUntil(maxT)
		e.kern.TickEdges(e.batchE[:b])
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

// RunTracked drives the kernel one event at a time while tracking the
// last-exceedance statistic of the averaging-time estimator inline: per
// event it costs one TickEdgeVar call and two float compares — no
// closures, no second variance read. The stop rule matches the
// estimator's: stop at MaxTime, or once the variance is below StopLevel
// and Quiet time has passed since the last exceedance. The clock is
// tested before each event, so chained calls with rising MaxTime process
// exactly the events of one call to the last MaxTime. With only MaxTime
// set it is the plain eager per-event loop: no variance is below a zero
// StopLevel.
func (e *Engine) RunTracked(cfg Tracked) TrackedResult {
	v := e.kern.Variance()
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
		v = e.kern.TickEdgeVar(edge)
		if v > cfg.ExceedLevel {
			lastExceed = at
		}
		e.events++
	}
	return TrackedResult{
		LastExceed: lastExceed,
		Censored:   e.now >= cfg.MaxTime && v >= cfg.StopLevel,
	}
}
