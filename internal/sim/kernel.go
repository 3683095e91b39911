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
// dispatch per event. The package tests of the algorithms pin TickEdges to
// a per-event reference loop over the unfused update rule.
type TickKernel interface {
	// TickEdges applies the algorithm's update for a batch of ticks, in
	// order.
	TickEdges(edges []graph.EdgeID)
}

// batchSize is the number of events sampled ahead of each fused kernel
// call. Scratch cost is one small array per engine; larger batches stop
// paying once the virtual-dispatch amortisation is negligible.
const batchSize = 256

// fillUntil samples up to batchSize events into the batch scratch,
// advancing the simulated clock, stopping after the first event whose time
// reaches maxT (that event is included: the loop tests the clock before
// each event, not after). It returns the number of events sampled.
//
// This is the single sampling loop of the per-event engine: the
// global-clock draws are inlined — ziggurat fast path, then the Lemire
// pick or the alias pick — in the draw order of the one-event-at-a-time
// reference loop the package tests keep, so the two consume identical
// random streams (the kernel equivalence tests enforce this).
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

// Tracked configures the tracked runs of BatchEngine and ShardEngine: the
// averaging-time estimator's stop rule. The levels are absolute variances
// (the caller scales its ratio thresholds by varX(0) once), so the loops
// run division-free.
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

// TrackedResult reports one tracked run's outcome.
type TrackedResult struct {
	// LastExceed is the time of the last event whose post-tick variance
	// exceeded ExceedLevel (0 if none did).
	LastExceed float64
	// Censored is set when the run ended at MaxTime still at or above
	// StopLevel.
	Censored bool
}
