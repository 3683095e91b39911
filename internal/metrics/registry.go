// Package metrics is the repository's dependency-free telemetry core: the
// Registry that names the counts the runtime layers (internal/dist,
// internal/sim, internal/sweep) keep and exports them as deterministic
// JSON snapshots, plus the one instrument a layer records into, the log2
// Histogram.
//
// Instrumentation must merge into the hot paths without moving the
// bench-regression gates, so a layer keeps its own counts — single-writer
// atomics it owns, like the dist runtime's per-shard exchange ledger — and
// registers snapshot-time readers over them (CounterFunc, GaugeFunc).
// Nothing is recorded twice, and a count costs the same with telemetry on
// or off. A nil *Registry is the disabled registry: it hands out nil
// histograms, whose methods are no-ops, ignores reader registrations and
// snapshots empty, so call sites need no enable flag of their own.
//
// Snapshots are deterministic: Snapshot() renders sorted names and exact
// integer state, so two runs that performed the same recorded work produce
// byte-identical metrics JSON (the package tests prove it). Wall-clock
// histograms are of course only as deterministic as the clock — the
// determinism contract is about the encoding, not the timings.
//
// Key types: Registry, Histogram, Snapshot. Telemetry semantics and the
// overhead budget are DESIGN.md §10.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Registry names a set of instruments and renders them into deterministic
// snapshots. Histogram registration is idempotent per name — asking twice
// returns the same histogram — but reusing a name across kinds is a
// programming error and panics.
//
// CounterFunc and GaugeFunc register read-on-snapshot callbacks over
// counts a layer already keeps (exchange ledgers, transport drop totals,
// rule tick counters, engine window counts): they add no cost to the hot
// path because nothing is recorded twice.
type Registry struct {
	mu         sync.Mutex
	hists      map[string]*Histogram
	counterFns map[string]func() int64
	gaugeFns   map[string]func() float64
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:      make(map[string]*Histogram),
		counterFns: make(map[string]func() int64),
		gaugeFns:   make(map[string]func() float64),
	}
}

// checkName panics when name is already registered under a different kind
// (r.mu must be held).
func (r *Registry) checkName(name, kind string) {
	conflict := ""
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		conflict = "histogram"
	}
	if _, ok := r.counterFns[name]; ok && kind != "counterfunc" {
		conflict = "counterfunc"
	}
	if _, ok := r.gaugeFns[name]; ok && kind != "gaugefunc" {
		conflict = "gaugefunc"
	}
	if conflict != "" {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, requested as a %s", name, conflict, kind))
	}
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers fn as the named counter's snapshot-time reader
// (replacing any previous reader of the same name — re-instrumenting a
// fresh layer under an old name is the newest layer winning). No-op on a
// nil registry or a nil fn.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counterfunc")
	r.counterFns[name] = fn
}

// GaugeFunc registers fn as the named gauge's snapshot-time reader (same
// replacement semantics as CounterFunc). No-op on a nil registry or a nil
// fn.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gaugefunc")
	r.gaugeFns[name] = fn
}

// Bucket is one non-empty histogram bucket: the inclusive value range
// [Lo, Hi] and its observation count.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is a histogram's state: exact count, exact sum, and
// the non-empty buckets in ascending range order.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is an immutable point-in-time export of a registry. Maps
// marshal with sorted keys (encoding/json's contract), so the JSON
// encoding of a given snapshot is byte-deterministic: two runs recording
// identical values export identical bytes. Concurrent with writers each
// instrument is individually exact but the snapshot is not a consistent
// cut across instruments.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports every registered instrument. A nil registry snapshots
// empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counterFns) > 0 {
		s.Counters = make(map[string]int64, len(r.counterFns))
		for name, fn := range r.counterFns {
			s.Counters[name] = fn()
		}
	}
	if len(r.gaugeFns) > 0 {
		s.Gauges = make(map[string]float64, len(r.gaugeFns))
		for name, fn := range r.gaugeFns {
			s.Gauges[name] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Delta returns the change from prev to s: counters and histograms
// subtract (names missing from prev count from zero), gauges keep s's
// instantaneous value. Names present only in prev are dropped — a delta
// is about what happened since, not what stopped existing.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	if len(s.Counters) > 0 {
		d.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			d.Counters[name] = v - prev.Counters[name]
		}
	}
	if len(s.Gauges) > 0 {
		d.Gauges = make(map[string]float64, len(s.Gauges))
		for name, v := range s.Gauges {
			d.Gauges[name] = v
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			d.Histograms[name] = h.delta(prev.Histograms[name])
		}
	}
	return d
}

// delta subtracts prev bucketwise, dropping buckets that did not grow.
func (h HistogramSnapshot) delta(prev HistogramSnapshot) HistogramSnapshot {
	before := make(map[uint64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		before[b.Lo] = b.Count
	}
	d := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
	for _, b := range h.Buckets {
		if n := b.Count - before[b.Lo]; n != 0 {
			d.Buckets = append(d.Buckets, Bucket{Lo: b.Lo, Hi: b.Hi, Count: n})
		}
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON plus a trailing newline.
// The byte stream is deterministic for a given snapshot (sorted map keys).
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: encoding snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
