package check

import (
	"encoding/json"
	"fmt"
	"os"

	"sparsecut/internal/dist"
	"sparsecut/internal/graph"
)

// Schedule action ops, as they appear in Action.Op / trace JSON.
const (
	// OpDeliver removes in-flight message Msg and delivers it (a message
	// to a crashed node is lost). Choosing which index to deliver is what
	// models reordering.
	OpDeliver = "deliver"
	// OpDrop removes in-flight message Msg without delivering it.
	OpDrop = "drop"
	// OpDup appends a copy of in-flight message Msg to the network.
	OpDup = "dup"
	// OpInitiate makes unlocked node Node start an exchange over its
	// Edge-th incident half-edge.
	OpInitiate = "initiate"
	// OpTimeout fires node Node's lock timeout (abort the outstanding
	// initiation).
	OpTimeout = "timeout"
	// OpResend fires node Node's proposal retransmission lease.
	OpResend = "resend"
	// OpCrash fail-stops node Node (volatile initiation aborts; value,
	// seq counter, watermarks and held proposal survive).
	OpCrash = "crash"
	// OpRecover restarts crashed node Node (its held proposal becomes due
	// for retransmission).
	OpRecover = "recover"
)

// Action is one step of a schedule. Which fields matter depends on Op (see
// the op constants); Info is a human-readable rendering filled in when a
// counterexample trace is built and ignored on replay.
type Action struct {
	Op   string `json:"op"`
	Node int    `json:"node,omitempty"`
	Edge int    `json:"edge,omitempty"`
	Msg  int    `json:"msg,omitempty"`
	Info string `json:"info,omitempty"`
}

// same reports whether two actions are the same schedule step (Info is
// presentation, not identity).
func (a Action) same(b Action) bool {
	return a.Op == b.Op && a.Node == b.Node && a.Edge == b.Edge && a.Msg == b.Msg
}

// Trace is a self-contained, JSON-serializable counterexample: the system
// (graph, initial values, rule), the checker configuration, the violating
// schedule, and the violation it produced. Replay re-executes it from the
// JSON alone.
type Trace struct {
	Version int       `json:"version"`
	Graph   GraphSpec `json:"graph"`
	X0      []float64 `json:"x0"`
	Rule    RuleSpec  `json:"rule"`
	Options Options   `json:"options"`
	// Mutation is the seeded protocol bug's name (checker self-tests);
	// empty for the correct protocol. It mirrors Options.Mutation and
	// takes precedence over it when the two disagree.
	Mutation  string     `json:"mutation,omitempty"`
	Actions   []Action   `json:"actions"`
	Violation *Violation `json:"violation,omitempty"`
}

// GraphSpec serialises a graph as parallel edge-endpoint lists.
type GraphSpec struct {
	Nodes int   `json:"nodes"`
	EdgeU []int `json:"edge_u"`
	EdgeV []int `json:"edge_v"`
}

func graphSpecOf(g *graph.Graph) GraphSpec {
	gs := GraphSpec{Nodes: g.NumNodes()}
	for _, e := range g.Edges() {
		gs.EdgeU = append(gs.EdgeU, int(e.U))
		gs.EdgeV = append(gs.EdgeV, int(e.V))
	}
	return gs
}

func (gs GraphSpec) build() (*graph.Graph, error) {
	if len(gs.EdgeU) != len(gs.EdgeV) {
		return nil, fmt.Errorf("check: trace graph has %d edge_u but %d edge_v", len(gs.EdgeU), len(gs.EdgeV))
	}
	b := graph.NewBuilder(gs.Nodes)
	for i, u := range gs.EdgeU {
		v := gs.EdgeV[i]
		// Checked here, before the conversion to NodeID could wrap them.
		if u < 0 || u >= gs.Nodes || v < 0 || v >= gs.Nodes {
			return nil, fmt.Errorf("check: trace edge %d (%d, %d) outside %d nodes", i, u, v, gs.Nodes)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.Build()
}

// newTrace assembles a counterexample from an exploration's action path,
// annotating each action with a human-readable Info line by replaying the
// prefix.
func newTrace(spec Spec, opt Options, actions []Action, v *Violation) *Trace {
	tr := &Trace{
		Version: 1,
		Graph:   graphSpecOf(spec.Graph),
		X0:      append([]float64(nil), spec.X0...),
		Rule:    spec.Rule,
		Options: opt,
		Actions: annotate(spec, opt, append([]Action(nil), actions...)),
	}
	if opt.Mutation != dist.MutNone {
		tr.Mutation = opt.Mutation.String()
	}
	tr.Violation = v
	return tr
}

// annotate fills Action.Info by replaying the schedule on a fresh world.
func annotate(spec Spec, opt Options, actions []Action) []Action {
	w, err := newWorld(spec, opt)
	if err != nil {
		return actions
	}
	for i := range actions {
		actions[i].Info = w.describe(actions[i])
		if w.apply(actions[i]) != nil {
			break
		}
	}
	return actions
}

// describe renders an action against the current state (pre-application).
func (w *world) describe(a Action) string {
	switch a.Op {
	case OpDeliver, OpDrop, OpDup:
		if a.Msg >= 0 && a.Msg < len(w.net) {
			m := w.net[a.Msg]
			return fmt.Sprintf("%s %d->%d seq=%d x=%g", m.Kind, m.From, m.To, m.Seq, m.X)
		}
	case OpInitiate:
		adj := w.g.Neighbors(graph.NodeID(a.Node))
		if a.Node >= 0 && a.Node < len(w.nodes) && a.Edge >= 0 && a.Edge < len(adj) {
			return fmt.Sprintf("node %d locks toward %d (edge %d)", a.Node, adj[a.Edge].Peer, adj[a.Edge].Edge)
		}
	}
	return ""
}

// specAndOptions reconstructs the checkable system from a trace. The node
// count is checked against x0 before the graph is built, so a trace cannot
// make Replay allocate a graph larger than its own x0 list.
func (tr *Trace) specAndOptions() (Spec, Options, error) {
	if len(tr.X0) != tr.Graph.Nodes {
		return Spec{}, Options{}, fmt.Errorf("check: %d initial values for %d nodes", len(tr.X0), tr.Graph.Nodes)
	}
	g, err := tr.Graph.build()
	if err != nil {
		return Spec{}, Options{}, err
	}
	opt := tr.Options
	if tr.Mutation != "" {
		mu, ok := dist.ParseMutation(tr.Mutation)
		if !ok {
			return Spec{}, Options{}, fmt.Errorf("check: trace names unknown mutation %q", tr.Mutation)
		}
		opt.Mutation = mu
	}
	return Spec{Graph: g, X0: tr.X0, Rule: tr.Rule}, opt, nil
}

// Replay re-executes tr's schedule deterministically on a fresh world and
// returns the violation it produced, nil if the whole schedule ran with
// every invariant holding. The error return is for traces that cannot be
// executed at all (bad graph/rule, inapplicable action) — a replay that
// merely disagrees with tr.Violation is reported by comparing the returned
// violation via Violation.Same.
func Replay(tr *Trace) (*Violation, error) {
	return ReplayFlight(tr, nil)
}

// WriteFile serialises the trace as indented JSON.
func (tr *Trace) WriteFile(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadTraceFile loads a trace written by Trace.WriteFile.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr := new(Trace)
	if err := json.Unmarshal(data, tr); err != nil {
		return nil, fmt.Errorf("check: parsing trace %s: %w", path, err)
	}
	return tr, nil
}
