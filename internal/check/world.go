package check

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
)

// Invariant names as they appear in Violation.Invariant / trace JSON.
const (
	invSum         = "sum"
	invStaleCommit = "stale-commit"
	invLockState   = "lock-state"
	invQuiescence  = "quiescence"
)

// Virtual-time constants. The checker's clock advances one tick per action;
// the machine's deadlines are written in this base but never consulted —
// the checker fires TimeoutAwait/Resend as explicit explorable actions, so
// the exact values only matter for trace readability.
const (
	vTick          = 1_000
	vLockTimeoutNs = 1_000_000
	vResendNs      = 500_000
)

// exKey identifies one exchange attempt: (initiator, initiator's seq).
type exKey struct {
	init int
	seq  uint64
}

// world is one explored state of the whole system: every node's protocol
// state, the crash bitmap, the virtual network (an ordered multiset of
// in-flight messages — delivery order is the checker's choice, which is
// what models reordering), and the ghost state the invariants need.
type world struct {
	g   *graph.Graph
	opt Options
	mc  dist.Machine

	nodes   []dist.NodeState
	crashed []bool
	net     []dist.Message

	// xInit is ghost provenance: the initiator's value at the moment each
	// exchange attempt's LOCK went out. The no-stale-commit invariant
	// checks every initiator apply against it — the protocol's claim is
	// precisely that a committed delta was computed from the initiator's
	// current value.
	xInit map[exKey]float64

	sum0  float64
	nowNs int64
	steps int

	// Spent schedule budgets (see Options).
	inits, dups, resends, crashes int

	// rec, when non-nil, receives a flight record for every applied
	// action (ReplayFlight sets it on the top-level replay world; steps
	// are recorded by dist.Machine.Step, as in the live runtime). Clones
	// drop it, so the throwaway quiescence drains the invariants run
	// record nothing.
	rec *flight.Recorder
}

func newWorld(spec Spec, opt Options) (*world, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("check: spec has no graph")
	}
	n := spec.Graph.NumNodes()
	if len(spec.X0) != n {
		return nil, fmt.Errorf("check: %d initial values for %d nodes", len(spec.X0), n)
	}
	sum0 := 0.0
	for i, x := range spec.X0 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("check: initial value of node %d is %v", i, x)
		}
		sum0 += x
	}
	rule, err := buildRule(spec.Rule, spec.Graph)
	if err != nil {
		return nil, err
	}
	w := &world{
		g:       spec.Graph,
		opt:     opt,
		nodes:   make([]dist.NodeState, n),
		crashed: make([]bool, n),
		xInit:   make(map[exKey]float64),
		sum0:    sum0,
	}
	w.mc = dist.Machine{
		G: spec.Graph, Rule: rule, Epoch: 1,
		LockTimeoutNs: vLockTimeoutNs, ResendEveryNs: vResendNs,
		Mutate: opt.Mutation,
	}
	for i := range w.nodes {
		w.nodes[i] = dist.NodeState{ID: i, X: spec.X0[i]}
	}
	return w, nil
}

// clone forks the world for one explored branch. Everything mutable is
// deep-copied, including A's rule (its tick and swap counters are protocol
// state the DFS must backtrack).
func (w *world) clone() *world {
	cp := *w
	if r, ok := w.mc.Rule.(*dist.SparseCutRule); ok {
		cp.mc.Rule = r.Clone()
	}
	cp.nodes = make([]dist.NodeState, len(w.nodes))
	for i := range w.nodes {
		cp.nodes[i] = w.nodes[i].Clone()
	}
	cp.crashed = append([]bool(nil), w.crashed...)
	cp.net = append([]dist.Message(nil), w.net...)
	cp.xInit = maps.Clone(w.xInit)
	cp.rec = nil
	return &cp
}

// enabled enumerates the actions explorable from this state, in a fixed
// deterministic order (the order defines what a schedule byte selects).
func (w *world) enabled() []Action {
	var acts []Action
	for i := range w.net {
		acts = append(acts, Action{Op: OpDeliver, Msg: i})
	}
	if w.opt.Drops {
		for i := range w.net {
			acts = append(acts, Action{Op: OpDrop, Msg: i})
		}
	}
	if w.opt.Dups && w.dups < w.opt.MaxDups {
		for i := range w.net {
			// LOCKs are excluded: the transport contract never duplicates,
			// and the protocol never retransmits LOCKs, so every duplicate
			// in the real system is a re-offered PROPOSE / re-answered
			// COMMIT or NACK. A duplicated LOCK would make the checker
			// explore behaviours outside the system's fault model (it
			// genuinely breaks the watermark argument — two live exchange
			// attempts with the same (initiator, seq) identity).
			if w.net[i].Kind != dist.MsgLock {
				acts = append(acts, Action{Op: OpDup, Msg: i})
			}
		}
	}
	for n, st := range w.nodes {
		if w.crashed[n] {
			acts = append(acts, Action{Op: OpRecover, Node: n})
			continue
		}
		if !st.Locked() && w.inits < w.opt.MaxInitiations {
			for e := range w.g.Neighbors(graph.NodeID(n)) {
				acts = append(acts, Action{Op: OpInitiate, Node: n, Edge: e})
			}
		}
		if st.Lock.Role == dist.RoleInitiator {
			acts = append(acts, Action{Op: OpTimeout, Node: n})
		}
		if st.Lock.Role == dist.RoleResponder && w.resends < w.opt.MaxResends {
			acts = append(acts, Action{Op: OpResend, Node: n})
		}
		if w.opt.Crashes && w.crashes < w.opt.MaxCrashes {
			acts = append(acts, Action{Op: OpCrash, Node: n})
		}
	}
	return acts
}

// apply executes one action and then checks every invariant. It returns a
// *Violation when an invariant fails, or an errInvalid-wrapped error when
// the action is not applicable (corrupt trace / fuzzed schedule); nil
// means the step is clean. apply validates applicability, not budgets —
// budget discipline lives in enabled(), so a replayed trace is not
// re-judged against its budgets.
func (w *world) apply(a Action) error {
	w.steps++
	w.nowNs += vTick
	var verr error
	switch a.Op {
	case OpDeliver:
		m, err := w.takeMsg(a.Msg)
		if err != nil {
			return err
		}
		verr = w.deliver(m, false)
	case OpDrop:
		m, err := w.takeMsg(a.Msg)
		if err != nil {
			return err
		}
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDrop(m, m.From, flight.ReasonSchedule, w.nowNs)
		}
	case OpDup:
		if a.Msg < 0 || a.Msg >= len(w.net) {
			return fmt.Errorf("%w: dup of message %d of %d in flight", errInvalid, a.Msg, len(w.net))
		}
		w.net = append(w.net, w.net[a.Msg])
		w.dups++
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDup(w.net[a.Msg], w.nowNs)
		}
	case OpInitiate:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if st.Locked() {
			return fmt.Errorf("%w: initiate on locked node %d", errInvalid, a.Node)
		}
		adj := w.g.Neighbors(graph.NodeID(a.Node))
		if a.Edge < 0 || a.Edge >= len(adj) {
			return fmt.Errorf("%w: node %d has no incident edge index %d", errInvalid, a.Node, a.Edge)
		}
		lk := w.step(a.Node, dist.StepIn{Kind: dist.StepInitiate, He: adj[a.Edge]}).Send[0]
		w.xInit[exKey{a.Node, lk.Seq}] = lk.X
		w.inits++
	case OpTimeout:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if st.Lock.Role != dist.RoleInitiator {
			return fmt.Errorf("%w: timeout on node %d with no outstanding initiation", errInvalid, a.Node)
		}
		w.step(a.Node, dist.StepIn{Kind: dist.StepTimeout})
	case OpResend:
		st, err := w.aliveNode(a.Node)
		if err != nil {
			return err
		}
		if st.Lock.Role != dist.RoleResponder {
			return fmt.Errorf("%w: resend on node %d with no held proposal", errInvalid, a.Node)
		}
		w.step(a.Node, dist.StepIn{Kind: dist.StepResend})
		w.resends++
	case OpCrash:
		if _, err := w.aliveNode(a.Node); err != nil {
			return err
		}
		w.crashed[a.Node] = true
		w.crashes++
		w.step(a.Node, dist.StepIn{Kind: dist.StepCrash})
	case OpRecover:
		if a.Node < 0 || a.Node >= len(w.nodes) || !w.crashed[a.Node] {
			return fmt.Errorf("%w: recover on node %d which is not crashed", errInvalid, a.Node)
		}
		w.crashed[a.Node] = false
		w.step(a.Node, dist.StepIn{Kind: dist.StepRecover})
	default:
		return fmt.Errorf("%w: unknown op %q", errInvalid, a.Op)
	}
	if verr != nil {
		return w.atStep(verr)
	}
	return w.atStep(w.invariants())
}

// atStep stamps a fresh violation with the current schedule step.
func (w *world) atStep(err error) error {
	if v, ok := err.(*Violation); ok && v.Step == 0 {
		v.Step = w.steps
	}
	return err
}

func (w *world) aliveNode(i int) (*dist.NodeState, error) {
	if i < 0 || i >= len(w.nodes) {
		return nil, fmt.Errorf("%w: node %d out of range", errInvalid, i)
	}
	if w.crashed[i] {
		return nil, fmt.Errorf("%w: node %d is crashed", errInvalid, i)
	}
	return &w.nodes[i], nil
}

func (w *world) takeMsg(i int) (dist.Message, error) {
	if i < 0 || i >= len(w.net) {
		return dist.Message{}, fmt.Errorf("%w: message index %d of %d in flight", errInvalid, i, len(w.net))
	}
	m := w.net[i]
	w.net = append(w.net[:i], w.net[i+1:]...)
	return m, nil
}

// step moves node through the machine at the current virtual time, records
// the step's sends as the live runtime's send path does, and puts them in
// flight.
func (w *world) step(node int, in dist.StepIn) dist.StepOut {
	in.NowNs = w.nowNs
	out := w.mc.Step(&w.nodes[node], in, w.rec)
	if m := out.Send[0]; m.Kind != 0 {
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.Send(node, m, w.nowNs)
		}
		w.net = append(w.net, m)
	}
	return out
}

// deliver hands m to its destination and runs the per-delivery ghost
// checks. A message to a crashed node is lost — the runtime's fail-stop
// semantics.
func (w *world) deliver(m dist.Message, draining bool) error {
	if w.crashed[m.To] {
		if w.rec != nil {
			dist.FlightEmitter{Rec: w.rec}.NetDrop(m, m.To, flight.ReasonDead, w.nowNs)
		}
		return nil
	}
	st := &w.nodes[m.To]
	xBefore, pre := st.X, st.Lock
	out := w.step(m.To, dist.StepIn{Kind: dist.StepDeliver, Msg: m, Draining: draining})
	if out.Applied {
		// Provenance: the delta the initiator just applied was computed by
		// the responder from the value the LOCK carried. If that is not the
		// initiator's value at apply time, a stale exchange committed.
		rec, ok := w.xInit[exKey{st.ID, m.Seq}]
		if !ok || rec != xBefore {
			return &Violation{Invariant: invStaleCommit, Detail: fmt.Sprintf(
				"node %d applied proposal seq %d from node %d computed against value %v, but its value at apply time is %v",
				st.ID, m.Seq, m.From, rec, xBefore)}
		}
	}
	if out.Committed && pre.Role == dist.RoleResponder {
		// A responder must only commit a proposal whose initiator actually
		// applied the matching half (watermark equals the held seq; see
		// sumInvariant for why equality is the applied test).
		if got := w.nodes[pre.Peer].LastApplied[st.ID]; got != pre.Seq {
			return &Violation{Invariant: invStaleCommit, Detail: fmt.Sprintf(
				"node %d committed held proposal seq %d whose initiator %d has applied-watermark %d",
				st.ID, pre.Seq, pre.Peer, got)}
		}
	}
	return nil
}

// invariants runs the per-step safety checks: lock-state sanity, the
// crash-adjusted sum, and the quiescence drain on a throwaway clone.
func (w *world) invariants() error {
	if err := w.lockSanity(); err != nil {
		return err
	}
	if err := w.sumInvariant(); err != nil {
		return err
	}
	return w.clone().drain()
}

// lockSanity checks what the lock slot's type does not already enforce (a
// node holds one role at most): crashed nodes hold no volatile initiation,
// and watermarks never pass the initiator's own seq counter.
func (w *world) lockSanity() error {
	for i, st := range w.nodes {
		if w.crashed[i] && st.Lock.Role == dist.RoleInitiator {
			return &Violation{Invariant: invLockState, Detail: fmt.Sprintf(
				"crashed node %d still holds its (volatile) outstanding initiation", i)}
		}
		for r, seq := range st.LastApplied {
			if seq > st.Seq {
				return &Violation{Invariant: invLockState, Detail: fmt.Sprintf(
					"node %d applied-watermark for responder %d is %d, past its own seq counter %d", i, r, seq, st.Seq)}
			}
		}
	}
	return nil
}

// sumInvariant checks crash-adjusted sum conservation. Mid-exchange the
// raw sum legitimately carries each applied-but-uncommitted delta once
// (the initiator applied +d, the responder still holds d); subtracting
// exactly those held deltas must recover the initial sum at every
// reachable state — including any crash pattern, since values, watermarks
// and held proposals are stable storage.
func (w *world) sumInvariant() error {
	s := 0.0
	for _, st := range w.nodes {
		s += st.X
	}
	for _, st := range w.nodes {
		if st.Lock.Role != dist.RoleResponder {
			continue
		}
		// The initiator applied this held proposal iff its watermark equals
		// the held seq exactly: proposals to one initiator are serial, and
		// a held proposal below the watermark is a resurrected aborted
		// initiation the initiator never applied (and must refuse — that
		// refusal being exact is precisely what MutLaxWatermarkDedup breaks).
		if w.nodes[st.Lock.Peer].LastApplied[st.ID] == st.Lock.Seq {
			s -= st.Lock.D
		}
	}
	if d := s - w.sum0; math.Abs(d) > w.opt.Epsilon {
		return &Violation{Invariant: invSum, Detail: fmt.Sprintf(
			"crash-adjusted sum %v drifted from initial %v by %v", s, w.sum0, d)}
	}
	return nil
}

// drain runs the deterministic quiescence procedure on (a clone of) the
// world: recover everyone, then repeatedly deliver the oldest in-flight
// message, else retransmit a held proposal, else time out an outstanding
// initiation — the drain counterpart of the runtime's drain phase (new
// LOCKs are refused). From any reachable state of the correct protocol
// this terminates in a fully unlocked world whose plain sum equals the
// initial sum.
func (w *world) drain() error {
	for i := range w.crashed {
		if w.crashed[i] {
			w.crashed[i] = false
			w.step(i, dist.StepIn{Kind: dist.StepRecover})
		}
	}
	limit := 100 + 30*(len(w.net)+len(w.nodes))
	for step := 0; ; step++ {
		if step > limit {
			return &Violation{Invariant: invQuiescence, Detail: fmt.Sprintf(
				"world did not quiesce within %d drain steps", limit)}
		}
		w.nowNs += vTick
		if len(w.net) > 0 {
			m := w.net[0]
			w.net = w.net[1:]
			if err := w.deliver(m, true); err != nil {
				if v, ok := err.(*Violation); ok {
					v.Detail = "during quiescence drain: " + v.Detail
				}
				return err
			}
			continue
		}
		acted := false
		for i, st := range w.nodes {
			if st.Lock.Role == dist.RoleResponder {
				w.step(i, dist.StepIn{Kind: dist.StepResend})
				acted = true
				break
			}
		}
		if !acted {
			for i, st := range w.nodes {
				if st.Lock.Role == dist.RoleInitiator {
					w.step(i, dist.StepIn{Kind: dist.StepTimeout})
					acted = true
					break
				}
			}
		}
		if !acted {
			break
		}
	}
	s := 0.0
	for _, st := range w.nodes {
		s += st.X
	}
	if d := s - w.sum0; math.Abs(d) > w.opt.Epsilon {
		return &Violation{Invariant: invQuiescence, Detail: fmt.Sprintf(
			"drained sum %v differs from initial %v by %v", s, w.sum0, d)}
	}
	return nil
}

// hash is the canonical state fingerprint for DFS deduplication. Virtual
// timestamps (deadlines, leases, the clock itself) are deliberately
// excluded — the checker fires timers by explicit action, so two states
// differing only in clock readings have identical futures. The network is
// hashed as a sorted multiset: delivery actions can pick any in-flight
// message, so worlds differing only in queue order are behaviourally
// isomorphic (a small symmetry reduction). Ghost provenance is also
// excluded: entries relevant to any in-flight or held proposal are fully
// determined by the hashed state.
func (w *world) hash() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for i, st := range w.nodes {
		mix(math.Float64bits(st.X))
		mix(st.Seq)
		// The lock slot mixes as two tagged fields, initiator (1, peer,
		// seq) then responder (2, held proposal's key), each a lone 0 when
		// the node does not hold that role.
		switch st.Lock.Role {
		case dist.RoleInitiator:
			mix(1)
			mix(uint64(st.Lock.Peer))
			mix(st.Lock.Seq)
			mix(0)
		case dist.RoleResponder:
			k := msgKey(w.mc.HeldProposal(&st))
			mix(0)
			mix(2)
			mix(k[0])
			mix(k[1])
		default:
			mix(0)
			mix(0)
		}
		for _, he := range w.g.Neighbors(graph.NodeID(i)) {
			mix(st.LastApplied[int(he.Peer)])
		}
		if w.crashed[i] {
			mix(1)
		} else {
			mix(0)
		}
	}
	keys := make([][2]uint64, len(w.net))
	for i, m := range w.net {
		keys[i] = msgKey(m)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	mix(uint64(len(keys)))
	for _, k := range keys {
		mix(k[0])
		mix(k[1])
	}
	var ticks, swaps int64 // vanilla averaging has no rule state
	if r, ok := w.mc.Rule.(*dist.SparseCutRule); ok {
		ticks, swaps = r.Ticks(), r.Swaps()
	}
	mix(uint64(ticks))
	mix(uint64(swaps))
	mix(uint64(w.inits))
	mix(uint64(w.dups))
	mix(uint64(w.resends))
	mix(uint64(w.crashes))
	return h
}

// maxHashNodes is the largest node count msgKey identifies exactly: it
// keeps 8 bits of each endpoint id. A graph that small also has fewer
// than 2^15 edges, within msgKey's 16 edge bits.
const maxHashNodes = 256

// msgKey packs a message's time-independent identity for hashing: its
// kind and the kind it answers (Re, 4 bits each: there are four kinds),
// endpoints, edge, sequence number and value. Re separates a NACK that
// refuses a LOCK from one that refuses a PROPOSE, which Deliver treats
// differently.
func msgKey(m dist.Message) [2]uint64 {
	k := uint64(m.Kind&0xf)<<60 | uint64(m.Re&0xf)<<56 |
		uint64(uint8(m.From))<<48 | uint64(uint8(m.To))<<40 |
		uint64(uint16(m.Edge))<<24 | (m.Seq & 0xffffff)
	return [2]uint64{k, math.Float64bits(m.X)}
}
