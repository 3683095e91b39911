package gossip

import (
	"fmt"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// BatchState holds R independent replicas of one averaging process in a
// single flat structure-of-arrays buffer: replica-major × node, all rows
// initialised from the same x0 and centered by its mean (the same
// shift-invariance argument as State). It is the value store of the
// replica-batched simulation engine (sim.BatchEngine): the graph's flat
// endpoint arrays are shared across replicas and stay hot in cache while
// the engine round-robins replica chunks over them.
//
// Two families of entry points write the buffer. The lazy batch updates
// (AverageEdgeBatch, ConvexEdgeBatch, Set2Batch) touch only the values and
// defer the moment bookkeeping to the next moment read, exactly like the
// State *Lazy methods — the untracked hot path. The tracked variants
// (AverageEdgeBatchTracked, ConvexEdgeBatchTracked, Set2BatchTracked)
// maintain the per-replica moments eagerly and classify every event
// against an exceedance level using the division-free scaled comparison
//
//	var > level  ⇔  n·Σy² − (Σy)² > n²·level,
//
// so the averaging-time estimator's per-event variance test costs two
// multiplies and a compare instead of two divisions.
type BatchState struct {
	n      int
	fn     float64 // float64(n), hoisted for the scaled compares
	offset float64 // shared initial mean, added back on read
	vals   []float64
	// Per-replica incremental moments of the centered rows.
	sum     []float64
	sumSq   []float64
	updates []int  // point updates since the last exact resync
	dirty   []bool // lazy batch updates pending
}

// NewBatchState builds R replica rows initialised from x0 (copied). It
// panics if replicas < 1 or x0 is empty — the batch engines validate their
// inputs before reaching here.
func NewBatchState(x0 []float64, replicas int) *BatchState {
	if replicas < 1 {
		panic("gossip: NewBatchState needs at least one replica")
	}
	if len(x0) == 0 {
		panic("gossip: NewBatchState needs a non-empty initial vector")
	}
	n := len(x0)
	b := &BatchState{
		n:       n,
		fn:      float64(n),
		vals:    make([]float64, replicas*n),
		sum:     make([]float64, replicas),
		sumSq:   make([]float64, replicas),
		updates: make([]int, replicas),
		dirty:   make([]bool, replicas),
	}
	m := 0.0
	for _, v := range x0 {
		m += v
	}
	b.offset = m / float64(n)
	for rep := 0; rep < replicas; rep++ {
		row := b.row(rep)
		for i, v := range x0 {
			row[i] = v - b.offset
		}
		b.resync(rep)
	}
	return b
}

// Replicas returns the batch width R.
func (b *BatchState) Replicas() int { return len(b.sum) }

// N returns the node count per replica.
func (b *BatchState) N() int { return b.n }

// row returns replica rep's centered value slice.
func (b *BatchState) row(rep int) []float64 {
	return b.vals[rep*b.n : (rep+1)*b.n : (rep+1)*b.n]
}

// CopyInto writes replica rep's value vector (original frame) into dst. It
// panics if len(dst) != N().
func (b *BatchState) CopyInto(rep int, dst []float64) {
	if len(dst) != b.n {
		panic("gossip: CopyInto buffer length mismatch")
	}
	for i, v := range b.row(rep) {
		dst[i] = v + b.offset
	}
}

// Mean returns replica rep's current average value.
func (b *BatchState) Mean(rep int) float64 {
	b.syncIfDirty(rep)
	return b.offset + b.sum[rep]/b.fn
}

// Variance returns replica rep's population variance, recomputed exactly
// on the first read after a lazy batch update.
func (b *BatchState) Variance(rep int) float64 {
	b.syncIfDirty(rep)
	m := b.sum[rep] / b.fn
	v := b.sumSq[rep]/b.fn - m*m
	if v < 0 { // float rounding can push a converged replica slightly negative
		return 0
	}
	return v
}

// AverageEdgeBatch applies the vanilla exchange for every edge of the
// batch to replica rep, values only (lazy moments) — the untracked hot
// path, row-for-row identical to State.AverageEdgesLazy.
func (b *BatchState) AverageEdgeBatch(rep int, edges []graph.EdgeID, eu, ev []int32) {
	row, off := b.row(rep), b.offset
	for _, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := row[i], row[j]
		c := ((yi + off) + (yj + off)) / 2
		c -= off
		row[i] = c
		row[j] = c
	}
	b.dirty[rep] = true
}

// ConvexEdgeBatch is AverageEdgeBatch for the class-C exchange with mixing
// parameter alpha.
func (b *BatchState) ConvexEdgeBatch(rep int, edges []graph.EdgeID, eu, ev []int32, alpha float64) {
	row, off := b.row(rep), b.offset
	beta := 1 - alpha
	for _, e := range edges {
		i, j := eu[e], ev[e]
		xi, xj := row[i]+off, row[j]+off
		row[i] = alpha*xi + beta*xj - off
		row[j] = alpha*xj + beta*xi - off
	}
	b.dirty[rep] = true
}

// Set2Batch assigns nodes i and j of replica rep the values vi, vj
// (original frame), deferring the moment bookkeeping.
func (b *BatchState) Set2Batch(rep int, i, j int, vi, vj float64) {
	row := b.row(rep)
	row[i] = vi - b.offset
	row[j] = vj - b.offset
	b.dirty[rep] = true
}

// AverageEdgeBatchTracked applies the batch with eager per-event moments
// and returns the index within edges of the last event whose post-tick
// variance exceeded exceedLevel (-1 if none did) together with the
// post-chunk variance. The stored rows and moments are bit-identical to
// the State.AverageEdge sequence; the per-event classification uses the
// scaled division-free comparison, so it can differ from a State.Variance
// read only by one ulp at the threshold.
func (b *BatchState) AverageEdgeBatchTracked(rep int, edges []graph.EdgeID, eu, ev []int32, exceedLevel float64) (lastIdx int, endVar float64) {
	b.syncIfDirty(rep)
	row, off, fn := b.row(rep), b.offset, b.fn
	scaledLevel := exceedLevel * fn * fn
	sum, sumSq := b.sum[rep], b.sumSq[rep]
	lastIdx = -1
	for k, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := row[i], row[j]
		c := ((yi + off) + (yj + off)) / 2
		c -= off
		row[i] = c
		row[j] = c
		sum += c - yi
		sum += c - yj
		cc := c * c
		sumSq += cc - yi*yi
		sumSq += cc - yj*yj
		if sumSq*fn-sum*sum > scaledLevel {
			lastIdx = k
		}
	}
	return lastIdx, b.endChunk(rep, sum, sumSq, 2*len(edges))
}

// ConvexEdgeBatchTracked is AverageEdgeBatchTracked for the class-C
// exchange, mirroring State.ConvexEdge.
func (b *BatchState) ConvexEdgeBatchTracked(rep int, edges []graph.EdgeID, eu, ev []int32, alpha, exceedLevel float64) (lastIdx int, endVar float64) {
	b.syncIfDirty(rep)
	row, off, fn := b.row(rep), b.offset, b.fn
	beta := 1 - alpha
	scaledLevel := exceedLevel * fn * fn
	sum, sumSq := b.sum[rep], b.sumSq[rep]
	lastIdx = -1
	for k, e := range edges {
		i, j := eu[e], ev[e]
		yi, yj := row[i], row[j]
		xi, xj := yi+off, yj+off
		ci := alpha*xi + beta*xj - off
		cj := alpha*xj + beta*xi - off
		row[i] = ci
		row[j] = cj
		sum += ci - yi
		sum += cj - yj
		sumSq += ci*ci - yi*yi
		sumSq += cj*cj - yj*yj
		if sumSq*fn-sum*sum > scaledLevel {
			lastIdx = k
		}
	}
	return lastIdx, b.endChunk(rep, sum, sumSq, 2*len(edges))
}

// Set2BatchTracked assigns nodes i and j of replica rep the values vi, vj
// (original frame) with eager moments, mirroring State.Set2, and returns
// the scaled post-update variance n²·var for the caller's own exceedance
// compare (push-sum interleaves its mass arithmetic between events, so its
// tracked chunk loop lives in the ensemble). The caller must finish its
// chunk with EndChunk.
func (b *BatchState) Set2BatchTracked(rep, i, j int, vi, vj float64) float64 {
	row := b.row(rep)
	yi, yj := row[i], row[j]
	ci := vi - b.offset
	cj := vj - b.offset
	row[i] = ci
	row[j] = cj
	sum := b.sum[rep] + (ci - yi)
	sum += cj - yj
	sumSq := b.sumSq[rep] + (ci*ci - yi*yi)
	sumSq += cj*cj - yj*yj
	b.sum[rep], b.sumSq[rep] = sum, sumSq
	return sumSq*b.fn - sum*sum
}

// ScaledLevel converts a variance level to the scaled frame of the
// tracked comparisons (n²·level).
func (b *BatchState) ScaledLevel(level float64) float64 { return level * b.fn * b.fn }

// EndChunk closes a tracked chunk that updated the moments through
// Set2BatchTracked: it accounts the point updates, resyncs when due, and
// returns the exact-frame post-chunk variance.
func (b *BatchState) EndChunk(rep, pointUpdates int) float64 {
	return b.endChunk(rep, b.sum[rep], b.sumSq[rep], pointUpdates)
}

// endChunk stores the chunk's final moments, resyncs on the State cadence
// (at chunk rather than event granularity — the drift bound is the same
// order), and returns the post-chunk variance.
func (b *BatchState) endChunk(rep int, sum, sumSq float64, pointUpdates int) float64 {
	b.sum[rep], b.sumSq[rep] = sum, sumSq
	b.updates[rep] += pointUpdates
	if b.updates[rep] >= resyncInterval {
		b.resync(rep)
	}
	m := b.sum[rep] / b.fn
	v := b.sumSq[rep]/b.fn - m*m
	if v < 0 {
		return 0
	}
	return v
}

// syncIfDirty makes replica rep's moments exact after lazy batch updates.
func (b *BatchState) syncIfDirty(rep int) {
	if b.dirty[rep] {
		b.resync(rep)
	}
}

// resync recomputes replica rep's moments exactly.
func (b *BatchState) resync(rep int) {
	sum, sumSq := 0.0, 0.0
	for _, v := range b.row(rep) {
		sum += v
		sumSq += v * v
	}
	b.sum[rep], b.sumSq[rep] = sum, sumSq
	b.updates[rep] = 0
	b.dirty[rep] = false
}

// VanillaEnsemble is the replica-batched counterpart of Vanilla: R
// independent replicas of vanilla gossip over one shared graph,
// implementing sim.BatchKernel.
type VanillaEnsemble struct {
	bs     *BatchState
	eu, ev []int32
}

// NewVanillaEnsemble builds R replicas of vanilla gossip on g, all
// starting from x0.
func NewVanillaEnsemble(g *graph.Graph, x0 []float64, replicas int) (*VanillaEnsemble, error) {
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	if replicas < 1 {
		return nil, fmt.Errorf("gossip: ensemble needs at least one replica, got %d", replicas)
	}
	return &VanillaEnsemble{bs: NewBatchState(x0, replicas), eu: g.EdgeU(), ev: g.EdgeV()}, nil
}

// Replicas implements sim.BatchKernel.
func (v *VanillaEnsemble) Replicas() int { return v.bs.Replicas() }

// TickChunk implements sim.BatchKernel (untracked, lazy moments).
func (v *VanillaEnsemble) TickChunk(rep int, edges []graph.EdgeID) {
	v.bs.AverageEdgeBatch(rep, edges, v.eu, v.ev)
}

// TickChunkTracked implements sim.BatchKernel.
func (v *VanillaEnsemble) TickChunkTracked(rep int, edges []graph.EdgeID, exceedLevel float64) (lastIdx int, endVar float64) {
	return v.bs.AverageEdgeBatchTracked(rep, edges, v.eu, v.ev, exceedLevel)
}

// ReplicaVariance implements sim.BatchKernel.
func (v *VanillaEnsemble) ReplicaVariance(rep int) float64 { return v.bs.Variance(rep) }

// CopyInto writes replica rep's value vector (original frame) into dst.
func (v *VanillaEnsemble) CopyInto(rep int, dst []float64) { v.bs.CopyInto(rep, dst) }

// ConvexEnsemble is the replica-batched counterpart of Convex.
type ConvexEnsemble struct {
	bs     *BatchState
	alpha  float64
	eu, ev []int32
}

// NewConvexEnsemble builds R replicas of α-gossip on g.
func NewConvexEnsemble(g *graph.Graph, x0 []float64, alpha float64, replicas int) (*ConvexEnsemble, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("gossip: alpha %v outside [0,1]", alpha)
	}
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	if replicas < 1 {
		return nil, fmt.Errorf("gossip: ensemble needs at least one replica, got %d", replicas)
	}
	return &ConvexEnsemble{bs: NewBatchState(x0, replicas), alpha: alpha, eu: g.EdgeU(), ev: g.EdgeV()}, nil
}

// Replicas implements sim.BatchKernel.
func (c *ConvexEnsemble) Replicas() int { return c.bs.Replicas() }

// TickChunk implements sim.BatchKernel (untracked, lazy moments).
func (c *ConvexEnsemble) TickChunk(rep int, edges []graph.EdgeID) {
	c.bs.ConvexEdgeBatch(rep, edges, c.eu, c.ev, c.alpha)
}

// TickChunkTracked implements sim.BatchKernel.
func (c *ConvexEnsemble) TickChunkTracked(rep int, edges []graph.EdgeID, exceedLevel float64) (lastIdx int, endVar float64) {
	return c.bs.ConvexEdgeBatchTracked(rep, edges, c.eu, c.ev, c.alpha, exceedLevel)
}

// ReplicaVariance implements sim.BatchKernel.
func (c *ConvexEnsemble) ReplicaVariance(rep int) float64 { return c.bs.Variance(rep) }

// CopyInto writes replica rep's value vector (original frame) into dst.
func (c *ConvexEnsemble) CopyInto(rep int, dst []float64) { c.bs.CopyInto(rep, dst) }

// PushSumEnsemble is the replica-batched counterpart of PushSum: the mass
// pairs (s, w) are stored replica-major like the estimates, and each
// replica draws its direction coins from its own stream — the same
// per-trial stream separation as the legacy estimator.
type PushSumEnsemble struct {
	bs      *BatchState // estimates s/w
	s, w    []float64   // replica-major mass arrays
	streams []*rng.RNG
	n       int
	eu, ev  []int32
}

// NewPushSumEnsemble builds one push-sum replica per stream, all starting
// from x0. Every stream must be non-nil and distinct streams should be
// independent (e.g. rng.Split children).
func NewPushSumEnsemble(g *graph.Graph, x0 []float64, streams []*rng.RNG) (*PushSumEnsemble, error) {
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("gossip: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	if len(streams) < 1 {
		return nil, fmt.Errorf("gossip: push-sum ensemble needs at least one stream")
	}
	n := len(x0)
	p := &PushSumEnsemble{
		bs:      NewBatchState(x0, len(streams)),
		s:       make([]float64, len(streams)*n),
		w:       make([]float64, len(streams)*n),
		streams: streams,
		n:       n,
		eu:      g.EdgeU(),
		ev:      g.EdgeV(),
	}
	for rep, r := range streams {
		if r == nil {
			return nil, fmt.Errorf("gossip: push-sum ensemble stream %d is nil", rep)
		}
		copy(p.s[rep*n:(rep+1)*n], x0)
		for i := rep * n; i < (rep+1)*n; i++ {
			p.w[i] = 1
		}
	}
	return p, nil
}

// Replicas implements sim.BatchKernel.
func (p *PushSumEnsemble) Replicas() int { return len(p.streams) }

// tick applies one push-sum exchange on replica rep's mass rows and
// returns the endpoints (post-swap) and their new estimates. The mass
// arithmetic is bit-identical to PushSum.tickPair.
func (p *PushSumEnsemble) tick(rep int, e graph.EdgeID, s, w []float64) (from, to int, estFrom, estTo float64) {
	from, to = int(p.eu[e]), int(p.ev[e])
	if p.streams[rep].Float64() < 0.5 {
		from, to = to, from
	}
	halfS, halfW := s[from]/2, w[from]/2
	s[from] -= halfS
	w[from] -= halfW
	s[to] += halfS
	w[to] += halfW
	return from, to, s[from] / w[from], s[to] / w[to]
}

// TickChunk implements sim.BatchKernel (untracked, lazy estimate moments).
func (p *PushSumEnsemble) TickChunk(rep int, edges []graph.EdgeID) {
	s := p.s[rep*p.n : (rep+1)*p.n : (rep+1)*p.n]
	w := p.w[rep*p.n : (rep+1)*p.n : (rep+1)*p.n]
	for _, e := range edges {
		from, to, ef, et := p.tick(rep, e, s, w)
		p.bs.Set2Batch(rep, from, to, ef, et)
	}
}

// TickChunkTracked implements sim.BatchKernel.
func (p *PushSumEnsemble) TickChunkTracked(rep int, edges []graph.EdgeID, exceedLevel float64) (lastIdx int, endVar float64) {
	p.bs.syncIfDirty(rep)
	s := p.s[rep*p.n : (rep+1)*p.n : (rep+1)*p.n]
	w := p.w[rep*p.n : (rep+1)*p.n : (rep+1)*p.n]
	scaledLevel := p.bs.ScaledLevel(exceedLevel)
	lastIdx = -1
	for k, e := range edges {
		from, to, ef, et := p.tick(rep, e, s, w)
		if p.bs.Set2BatchTracked(rep, from, to, ef, et) > scaledLevel {
			lastIdx = k
		}
	}
	return lastIdx, p.bs.EndChunk(rep, 2*len(edges))
}

// ReplicaVariance implements sim.BatchKernel (variance of the estimates).
func (p *PushSumEnsemble) ReplicaVariance(rep int) float64 { return p.bs.Variance(rep) }

// CopyInto writes replica rep's estimates s/w into dst.
func (p *PushSumEnsemble) CopyInto(rep int, dst []float64) { p.bs.CopyInto(rep, dst) }
