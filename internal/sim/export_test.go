package sim

import (
	"math"

	"sparsecut/internal/graph"
)

// The eager per-event loop: one event at a time, drawn by next, applied as
// a one-edge tracked chunk, with one moment read per event. No production
// caller drives it — RunUntil is the engine's one loop — but
// TestEngineGoldenDigest pins it, and through it the clock's draw order,
// for every kernel.

// next draws one event of the global clock: an Exp(1) gap scaled by the
// mean gap, then the edge — the draw order fillUntil inlines.
func (s *globalScheduler) next() (graph.EdgeID, float64) {
	s.now += s.r.ExpUnit() * s.invTotal
	if s.uniform {
		return graph.EdgeID(s.r.Intn(s.numEdges)), s.now
	}
	return graph.EdgeID(s.alias.pick(s.r)), s.now
}

// eagerKernel is a kernel the eager loop can drive: it applies a chunk of
// ticks and returns the resulting variance (gossip.Algorithm's tracked
// chunk), and reads the variance without ticking.
type eagerKernel interface {
	TickChunkTracked(edges []graph.EdgeID, level float64) (lastIdx int, endVar float64)
	Variance() float64
}

// RunTracked drives the engine's kernel, which must be an eagerKernel, one
// event at a time while tracking the last-exceedance statistic of the
// averaging-time estimator inline: one one-edge TickChunkTracked call and
// two float compares per event. It stops at MaxTime, or once the variance
// is below StopLevel and Quiet time has passed since the last exceedance.
// The clock is tested before each event, so chained calls with rising
// MaxTime process exactly the events of one call to the last MaxTime.
// With only MaxTime set it is the plain eager per-event loop: no variance
// is below a zero StopLevel.
func (e *Engine) RunTracked(cfg Tracked) TrackedResult {
	k := e.kern.(eagerKernel)
	v := k.Variance()
	lastExceed := 0.0
	tick := make([]graph.EdgeID, 1)
	for {
		if e.now >= cfg.MaxTime {
			break
		}
		if v < cfg.StopLevel && e.now >= lastExceed+cfg.Quiet {
			break
		}
		edge, at := e.sched.next()
		e.now = at
		tick[0] = edge
		_, v = k.TickChunkTracked(tick, math.Inf(1))
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
