// Package sim implements the paper's timing model: every edge of a graph
// carries an independent Poisson clock, and an algorithm is invoked at each
// tick. The simulator is event-driven and deterministic given a seed. It
// runs the model as one superposed global clock at the total rate that
// picks each ticking edge proportionally to its rate; the per-edge clock
// heap the paper describes is kept in the package tests as the reference
// this clock is checked against.
//
// Key types: Engine (per-event loop), BatchEngine (replica-batched, Poisson time-bridging). The timing model is DESIGN.md §2; the engines are §6 and §8.
package sim

import (
	"errors"
	"fmt"
	"math"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// Handler consumes edge clock ticks in simulated-time order.
type Handler interface {
	// HandleTick is invoked when edge e ticks at simulated time t.
	HandleTick(e graph.EdgeID, t float64)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(e graph.EdgeID, t float64)

// HandleTick implements Handler.
func (f HandlerFunc) HandleTick(e graph.EdgeID, t float64) { f(e, t) }

// Observer is called after every processed event with the current simulated
// time and the number of events processed so far.
type Observer func(t float64, events int64)

// StopCondition inspects simulation progress after each event and returns
// true to halt. It is also consulted once before the first event.
type StopCondition func(t float64, events int64) bool

// Until stops once simulated time reaches maxT.
func Until(maxT float64) StopCondition {
	return func(t float64, _ int64) bool { return t >= maxT }
}

// MaxEvents stops after n processed events.
func MaxEvents(n int64) StopCondition {
	return func(_ float64, events int64) bool { return events >= n }
}

// AnyOf stops when any of the given conditions holds.
func AnyOf(conds ...StopCondition) StopCondition {
	return func(t float64, events int64) bool {
		for _, c := range conds {
			if c(t, events) {
				return true
			}
		}
		return false
	}
}

// Engine drives a Handler with Poisson edge ticks on a fixed graph.
//
// Run is the general loop (any Handler, observers, arbitrary stop
// conditions). When the handler also implements TickKernel and no
// observers are registered, RunEvents, RunUntil and RunTracked take a
// fused batch path with identical semantics and random-stream consumption
// — see kernel.go.
type Engine struct {
	g         *graph.Graph
	handler   Handler
	sched     *globalScheduler
	observers []Observer
	now       float64
	events    int64

	// Scratch for the fused kernel path, allocated once on first use.
	batchE []graph.EdgeID
	batchT []float64
}

// Option configures NewEngine.
type Option func(*config)

type config struct {
	seed      uint64
	rand      *rng.RNG
	rates     []float64
	observers []Observer
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

// WithObserver registers an observer invoked after every event.
func WithObserver(obs Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs) }
}

// NewEngine builds an engine for g driving handler. It returns an error for
// a nil handler, an edgeless graph, or invalid rates.
func NewEngine(g *graph.Graph, handler Handler, opts ...Option) (*Engine, error) {
	if handler == nil {
		return nil, errors.New("sim: nil handler")
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
	rates := cfg.rates
	if rates == nil {
		rates = make([]float64, g.NumEdges())
		for i := range rates {
			rates[i] = 1
		}
	}
	if len(rates) != g.NumEdges() {
		return nil, fmt.Errorf("sim: %d rates for %d edges", len(rates), g.NumEdges())
	}
	for i, r := range rates {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("sim: invalid rate %v for edge %d", r, i)
		}
	}
	return &Engine{
		g:         g,
		handler:   handler,
		sched:     newGlobalScheduler(rates, cfg.rand),
		observers: cfg.observers,
	}, nil
}

// Graph returns the simulated graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of ticks processed so far.
func (e *Engine) Events() int64 { return e.events }

// Run processes events until stop returns true and reports the final
// simulated time and cumulative event count. Run may be called repeatedly;
// simulated time continues from where the previous call stopped.
func (e *Engine) Run(stop StopCondition) (t float64, events int64) {
	if stop == nil {
		panic("sim: Run requires a stop condition")
	}
	for !stop(e.now, e.events) {
		edge, at := e.sched.next()
		e.now = at
		e.handler.HandleTick(edge, at)
		e.events++
		for _, obs := range e.observers {
			obs(e.now, e.events)
		}
	}
	return e.now, e.events
}
