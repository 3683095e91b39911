package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// workload share a run id; Parent is 0 for the workload's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run writes them
// out at exit. Spans are recorded only around the calls the benchmark
// makes into a layer; the program under test carries no tracing. A nil
// tracer records nothing, so untraced code paths need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun stamps spans begun from now on with the given run id.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id. Safe for concurrent
// use.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// get returns the recorded span with the given id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans opened directly under id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the durations of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// residual is the share of span id's duration that its child spans do not
// cover: the part of a workload's wall time no layer call explains.
func (t *tracer) residual(id int) float64 {
	root := t.get(id)
	return ratio(float64(selfTime(root, t.children(id))), float64(root.dur()))
}

// selfTime is parent's duration minus the part of its interval that the
// union of the children's intervals covers. Children of concurrent workers
// overlap, so the union is taken, not the sum.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	reach = parent.Start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return parent.dur() - covered
}

// write stores every span as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
