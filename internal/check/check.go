// Package check is a deterministic, single-threaded model checker for the
// lock/propose/commit exchange protocol of internal/dist.
//
// The checker is the second driver of the pure state machine
// (dist.Machine) the live runtime runs: it moves every node through the
// same Machine.Step and runs the same dist rules (VanillaRule,
// SparseCutRule), so the two drivers differ only in timing and transport
// — the lockstep divergence test in internal/dist proves the shard loops
// add no hidden protocol state. It replaces every source of runtime
// nondeterminism with an explicit, explorable action:
//
//   - the transport becomes an ordered multiset of in-flight messages, and
//     delivering, dropping, duplicating or (by choosing delivery order)
//     reordering any one of them is an action;
//   - wall-clock timers become actions too: a lock timeout or a proposal
//     retransmission may fire at any point while armed, which soundly
//     over-approximates every real timing;
//   - fail-stop crashes and recoveries of individual nodes are actions,
//     with the same stable/volatile state split as the live runtime's crash
//     schedule (see Machine.Crash/Recover).
//
// A schedule — a sequence of such actions — is explored either
// exhaustively (bounded-depth DFS with state-hash deduplication) or by
// seeded random walks. After every action the checker asserts the
// protocol's safety invariants:
//
//   - crash-adjusted sum conservation: the value sum, corrected for held
//     proposals whose initiator half has already been applied, never
//     drifts from the initial sum beyond float rounding;
//   - no stale commit: an initiator only applies a delta computed from its
//     current value (ghost provenance), and a responder only commits a
//     proposal its initiator actually applied;
//   - lock-state sanity: crashed nodes hold no volatile initiation, and
//     watermarks never pass the peer's sequence counter (that a node never
//     holds both roles at once is enforced by the type: dist.NodeState
//     has one lock slot);
//   - quiescence: from any reachable state, deterministically draining the
//     network (deliver everything, retransmit, time out) reaches a fully
//     unlocked state whose plain sum equals the initial sum.
//
// A violated invariant yields a JSON-serializable counterexample Trace
// which Replay re-executes deterministically to the same violation; traces
// also re-encode as schedule byte-strings to seed the package's fuzz
// harness (FuzzSchedule).
package check

import (
	"errors"
	"fmt"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
)

// Spec is the system under check: a small graph, initial values, and the
// exchange rule the protocol runs.
type Spec struct {
	Graph *graph.Graph
	X0    []float64
	Rule  RuleSpec
}

// RuleSpec describes an exchange rule by value so it survives a trip
// through trace JSON; buildRule turns it into the dist rule it names.
type RuleSpec struct {
	// Kind is "vanilla" or "sparse-cut".
	Kind string `json:"kind"`
	// Sides assigns each node a partition side (0 or 1); sparse-cut only.
	Sides []int `json:"sides,omitempty"`
	// CutEdge is the designated cut edge ec; sparse-cut only.
	CutEdge int `json:"cut_edge,omitempty"`
	// EpochK is the swap period K in ticks of ec; sparse-cut only.
	EpochK int64 `json:"epoch_k,omitempty"`
	// Weight is the swap coefficient w; sparse-cut only.
	Weight float64 `json:"weight,omitempty"`
}

// Vanilla is the RuleSpec for plain pairwise averaging.
func Vanilla() RuleSpec { return RuleSpec{Kind: "vanilla"} }

// SparseCut is the RuleSpec for Algorithm A's exchange rule.
func SparseCut(sides []int, cutEdge int, epochK int64, weight float64) RuleSpec {
	return RuleSpec{Kind: "sparse-cut", Sides: sides, CutEdge: cutEdge, EpochK: epochK, Weight: weight}
}

// buildRule validates spec against g and builds the dist rule it names:
// the checker runs the same Rule values the live runtime does.
func buildRule(spec RuleSpec, g *graph.Graph) (dist.Rule, error) {
	switch spec.Kind {
	case "vanilla":
		return dist.VanillaRule{}, nil
	case "sparse-cut":
		if len(spec.Sides) != g.NumNodes() {
			return nil, fmt.Errorf("check: rule sides has %d entries for %d nodes", len(spec.Sides), g.NumNodes())
		}
		sides := make([]graph.Side, len(spec.Sides))
		for i, s := range spec.Sides {
			if s != 0 && s != 1 {
				return nil, fmt.Errorf("check: rule side %d of node %d is not 0 or 1", s, i)
			}
			sides[i] = graph.Side(s)
		}
		// Checked here, before the conversion to EdgeID could wrap it.
		if spec.CutEdge < 0 || spec.CutEdge >= g.NumEdges() {
			return nil, fmt.Errorf("check: designated edge %d out of range", spec.CutEdge)
		}
		part, err := graph.NewPartition(g, sides)
		if err != nil {
			return nil, err
		}
		r, err := dist.NewSparseCutRule(part, graph.EdgeID(spec.CutEdge), spec.EpochK, spec.Weight)
		if err != nil {
			return nil, err
		}
		return r, nil
	default:
		return nil, fmt.Errorf("check: unknown rule kind %q", spec.Kind)
	}
}

// Options bounds an exploration. The zero value means "use defaults" for
// every budget; fault actions are opt-in flags.
type Options struct {
	// MaxDepth bounds schedule length (default 12).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxStates bounds distinct states explored before DFS gives up and
	// reports Truncated (default 2 million).
	MaxStates int64 `json:"max_states,omitempty"`
	// MaxInitiations bounds Initiate actions per schedule (default 2) —
	// the protocol quiesces between exchanges, so small counts already
	// cover the interesting exchange-overlap interleavings.
	MaxInitiations int `json:"max_initiations,omitempty"`
	// MaxDups bounds message duplications per schedule (default 1).
	MaxDups int `json:"max_dups,omitempty"`
	// MaxResends bounds proposal retransmissions per schedule (default 1).
	MaxResends int `json:"max_resends,omitempty"`
	// MaxCrashes bounds crash actions per schedule (default 1).
	MaxCrashes int `json:"max_crashes,omitempty"`
	// Drops enables message-drop actions.
	Drops bool `json:"drops,omitempty"`
	// Dups enables message-duplication actions.
	Dups bool `json:"dups,omitempty"`
	// Crashes enables crash/recover actions.
	Crashes bool `json:"crashes,omitempty"`
	// Epsilon is the sum-conservation tolerance (default 1e-9).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Mutation seeds an intentional protocol bug (checker self-test).
	Mutation dist.Mutation `json:"mutation,omitempty"`
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 12
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 2_000_000
	}
	if o.MaxInitiations <= 0 {
		o.MaxInitiations = 2
	}
	if o.MaxDups <= 0 {
		o.MaxDups = 1
	}
	if o.MaxResends <= 0 {
		o.MaxResends = 1
	}
	if o.MaxCrashes <= 0 {
		o.MaxCrashes = 1
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// Result summarises one exploration.
type Result struct {
	// StatesExplored counts distinct (post-dedup) states visited.
	StatesExplored int64
	// Transitions counts actions applied (including into deduped states).
	Transitions int64
	// Deduped counts DFS branches cut by the visited-state table.
	Deduped int64
	// DeepestDepth is the longest schedule prefix reached.
	DeepestDepth int
	// Truncated reports that the MaxStates budget stopped the search
	// before the bounded space was exhausted.
	Truncated bool
	// Walks counts completed random walks (random-walk mode only).
	Walks int
	// Counterexample is the violating schedule, nil if no invariant was
	// violated.
	Counterexample *Trace
}

// Violation is one invariant failure, recorded at a specific step of a
// schedule. It doubles as the error value the world's apply returns.
type Violation struct {
	// Step is the 1-based index of the violating action in the schedule.
	Step int `json:"step"`
	// Invariant names the failed check: "sum", "stale-commit",
	// "lock-state" or "quiescence".
	Invariant string `json:"invariant"`
	// Detail is a human-readable account of the failure.
	Detail string `json:"detail"`
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: step %d violates %s: %s", v.Step, v.Invariant, v.Detail)
}

// Same reports whether two violations are the same failure (used by the
// replayer to confirm a counterexample reproduces).
func (v *Violation) Same(o *Violation) bool {
	if v == nil || o == nil {
		return v == o
	}
	return v.Step == o.Step && v.Invariant == o.Invariant && v.Detail == o.Detail
}

// errInvalid marks a schedule action that is not applicable in the current
// state (replaying a corrupted trace, or a fuzzed schedule byte with no
// enabled actions). Distinct from a Violation: the schedule is broken, not
// the protocol.
var errInvalid = errors.New("check: action not applicable in current state")
