// Package sim implements the paper's timing model: every edge of a graph
// carries an independent Poisson clock, and an algorithm's update rule is
// applied at each tick. The simulator is event-driven and deterministic
// given a seed. It runs the model as one superposed global clock at the
// total rate that picks each ticking edge proportionally to its rate; the
// per-edge clock heap the paper describes is kept in the package tests as
// the reference this clock is checked against.
//
// TickKernel is the one per-event contract: every engine here drives an
// algorithm through it (or through its replica-batched and sharded
// counterparts BatchKernel and ShardKernel). The test files keep two
// references: a per-event loop over the algorithms' unfused update rules,
// to which the fused loop is pinned bit for bit, and the eager tracked
// loop (one-edge tracked chunks, one moment read per event) that the
// engine golden digest pins.
//
// Key types: Engine (one per-event loop, RunUntil, in fused batches with
// lazy moments), BatchEngine (replica-batched, Poisson time-bridging, one
// tracked loop; every averaging-time estimate off the sharded path runs
// on it), ShardEngine (sharded PDES: tiles tick values only, and
// RunTracked reads exact moments at its barriers). Only BatchEngine keeps
// moments eagerly. The timing model is DESIGN.md §2; the engines are §6,
// §8 and §13.
package sim

import (
	"errors"
	"fmt"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Engine drives a TickKernel with Poisson edge ticks on a fixed graph, in
// fused batches through RunUntil — see kernel.go.
type Engine struct {
	g      *graph.Graph
	kern   TickKernel
	sched  *globalScheduler
	now    float64
	events int64

	// Scratch for the fused kernel path, allocated once on first use.
	batchE []graph.EdgeID
}

// Option configures NewEngine.
type Option func(*config)

type config struct {
	seed  uint64
	rand  *rng.RNG
	rates []float64
}

// WithSeed seeds the engine's private RNG (default seed 1). Ignored when
// WithRNG is also given.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithRNG supplies an externally owned RNG, e.g. a Split stream of a
// trial-level generator.
func WithRNG(r *rng.RNG) Option {
	return func(c *config) { c.rand = r }
}

// WithRates sets per-edge clock rates; len must equal g.NumEdges() and all
// rates must be positive. The default is rate 1 on every edge, as in the
// paper.
func WithRates(rates []float64) Option {
	return func(c *config) { c.rates = rates }
}

// NewEngine builds an engine for g driving kern. It returns an error for
// a nil kernel, an edgeless graph, or invalid rates.
func NewEngine(g *graph.Graph, kern TickKernel, opts ...Option) (*Engine, error) {
	if kern == nil {
		return nil, errors.New("sim: nil kernel")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("sim: %s has no edges to tick", g)
	}
	cfg := config{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.rand == nil {
		cfg.rand = rng.New(cfg.seed)
	}
	clock, err := newRateClock(g, cfg.rates)
	if err != nil {
		return nil, err
	}
	return &Engine{
		g:     g,
		kern:  kern,
		sched: &globalScheduler{rateClock: clock, r: cfg.rand},
	}, nil
}

// Graph returns the simulated graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of ticks processed so far.
func (e *Engine) Events() int64 { return e.events }
