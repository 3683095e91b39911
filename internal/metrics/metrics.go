// Package metrics is the repository's dependency-free telemetry core: the
// counters, gauges and histograms the runtime layers (internal/dist,
// internal/sim, internal/sweep) record into, and the Registry that names
// them and exports deterministic JSON snapshots.
//
// The package is engineered around one constraint: instrumentation must be
// mergeable into the hot paths without moving the bench-regression gates.
// Every instrument is therefore nil-safe — methods on a nil *Counter,
// *Gauge or *Histogram are no-ops — and a nil *Registry hands out nil
// instruments, so "disabled" call sites compile to a method call whose
// body is one predictable branch. Enabled counters are sharded across
// padded cache lines so concurrent writers (the dist runtime's shard
// loops, the sweep workers) do not serialise on a single cache line.
//
// Snapshots are deterministic: Snapshot() renders sorted names and exact
// integer state, so two runs that performed the same recorded work produce
// byte-identical metrics JSON (the package tests prove it). Wall-clock
// histograms are of course only as deterministic as the clock — the
// determinism contract is about the encoding, not the timings.
//
// Key types: Counter, Gauge, Histogram, Registry, Snapshot. Telemetry
// semantics and the overhead budget are DESIGN.md §10.
package metrics

import (
	"math"
	"sync/atomic"
)

// NumShards is the fixed shard count of every Counter: enough to spread
// GOMAXPROCS-scale writer pools on the machines this repository targets,
// small enough that Value() stays a trivial sum. A power of two so the
// shard pick is a mask, not a modulo.
const NumShards = 32

const shardMask = NumShards - 1

// cell is one counter shard, padded to its own cache line (64 bytes on
// every GOARCH this repo builds for) so adjacent shards do not false-share
// under concurrent writers.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotone sharded counter. Writers pick a shard — their dist
// shard-loop index or sweep-worker index — so independent writers land on
// distinct cache lines; readers sum all shards. The zero value is ready to use; all
// methods are safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	cells [NumShards]cell
}

// Inc adds 1 to the given shard (reduced mod NumShards).
func (c *Counter) Inc(shard int) {
	if c == nil {
		return
	}
	c.cells[uint(shard)&shardMask].v.Add(1)
}

// Add adds delta to the given shard (reduced mod NumShards).
func (c *Counter) Add(shard int, delta int64) {
	if c == nil {
		return
	}
	c.cells[uint(shard)&shardMask].v.Add(delta)
}

// Value returns the sum over all shards. Concurrent with writers it is a
// possibly-torn but monotone-consistent total: every increment that
// happened-before the call is included.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous float64 value (convergence progress, occupancy
// ratios). Reads and writes are atomic; the zero value reads 0 and is
// ready to use. Methods are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
