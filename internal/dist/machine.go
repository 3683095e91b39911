package dist

import (
	"maps"

	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
)

// This file is the exchange protocol itself: a pure, synchronously-steppable
// state machine, so that two very different drivers can run the *same*
// code. Both move a node only through Machine.Step, which also records the
// step in the flight recorder; the drivers differ only in timing and
// transport:
//
//   - the live runtime (shard.go): shard event loops with wall-clock timer
//     wheels and real mailboxes; each shard steps the NodeStates it owns
//     and routes StepOut effects into the runtime's counters and the
//     network;
//   - the model checker (internal/check): a single-threaded scheduler that
//     owns every NodeState plus a virtual network, and explores message
//     and timer interleavings systematically.
//
// The live driver is pinned to the machine by the lockstep divergence test
// in shard_test.go: the runtime records every StepIn it feeds the machine,
// and replaying that event sequence through fresh NodeStates and the
// per-kind methods must reproduce byte-identical StepOuts and final values.
//
// # Exchange protocol (lock / propose / commit)
//
// A node initiates an exchange when its clock fires while it is unlocked:
//
//	initiator                         responder
//	---------                         ---------
//	lock self
//	LOCK(seq, edge, x)  ───────────▶  busy or draining? ──▶ NACK(seq)
//	                                  else: lock self,
//	                                  d := rule.Delta(edge, x, y)
//	              ◀───────────────    PROPOSE(seq, d)   (held, retransmitted)
//	x += d (once), unlock
//	COMMIT(seq)         ───────────▶  y -= d, unlock
//
// Abort paths leave no state change anywhere: a busy responder NACKs the
// LOCK; a lock timeout releases the initiator; and a PROPOSE that arrives
// after its initiator already timed out is answered with a NACK, on which
// the responder rolls back its (uncommitted) proposal and unlocks. The
// initiator therefore only ever applies a delta for its *current*
// exchange, so a committed exchange always uses both endpoints' current
// values — there is no stale-value commit even under arbitrary delays.
//
// Loss paths: a lost LOCK times out into a clean abort; a lost PROPOSE or
// COMMIT is covered by the responder retransmitting the proposal on a
// lease timer until it is answered — the initiator deduplicates by a
// per-responder seq watermark (exact match; a below-watermark proposal is
// a resurrected aborted initiation and is refused, see MutLaxWatermarkDedup)
// and re-answers COMMIT for proposals it already applied. Because the initiator applies +d exactly once and the
// responder applies the exact negation exactly once (it is locked from
// proposal to resolution, so d stays valid), a committed exchange changes
// the value sum only by the two float roundings of x±d (~1 ulp each) no
// matter what the network drops, delays or reorders.
//
// Crash paths: a crash is fail-stop with stable storage for the node's
// value, seq counter, applied-watermarks and held proposal — only the
// outstanding initiation (an initiator lock) is volatile and aborts at
// crash time.
// Messages delivered to a crashed node are lost. A recovered responder
// resumes retransmitting its held proposal, so the exchange still resolves
// the way the initiator decided (COMMIT if the initiator's watermark shows
// it applied, NACK otherwise) and the value sum survives any crash
// schedule. internal/check explores exactly this fault model.
type Machine struct {
	// G is the graph; Rule the exchange rule.
	G    *graph.Graph
	Rule Rule
	// Epoch stamps outgoing messages and drops stale incoming ones (see
	// Message.Epoch).
	Epoch uint64
	// LockTimeoutNs and ResendEveryNs set the deadline the machine writes
	// into a node's lock slot, in the driver's time base (wall nanoseconds
	// for the live runtime, virtual ticks for the checker). The machine
	// never compares them against now itself — firing TimeoutAwait and
	// Resend is the driver's decision.
	LockTimeoutNs int64
	ResendEveryNs int64
	// Mutate seeds an intentional protocol bug for checker self-tests
	// (does the checker actually catch a broken protocol?). Always MutNone
	// in the live runtime.
	Mutate Mutation
}

// Mutation selects an intentionally seeded protocol bug. Each one breaks a
// different invariant the checker asserts; internal/check's self-tests
// prove every mutation is caught and its counterexample replays.
type Mutation uint8

const (
	// MutNone is the correct protocol.
	MutNone Mutation = iota
	// MutNackRollbackApplies makes the responder apply -delta while
	// rolling back a NACKed proposal — state change on an abort path,
	// caught by the crash-adjusted sum invariant.
	MutNackRollbackApplies
	// MutStaleProposalApply makes the initiator apply a proposal for an
	// exchange it already gave up on — a stale commit, caught by the
	// provenance check (the delta no longer matches the initiator's
	// current value).
	MutStaleProposalApply
	// MutCommitIgnoresSeq makes the responder commit its held proposal on
	// any COMMIT from the right peer, ignoring the seq match — a stale
	// (duplicated or reordered) COMMIT from an older exchange epoch then
	// commits a proposal whose initiator never applied its half.
	MutCommitIgnoresSeq
	// MutNackRoleConfusion makes NACK handling ignore Message.Re, the
	// answered-request kind — the second real bug internal/check found in
	// this machine's seed: node u's LOCK seq=s, aborted and delayed, is
	// NACKed by a busy node v just as v runs its own exchange seq=s with u
	// as responder; without Re the NACK (from v, seq s) is
	// indistinguishable from v refusing u's held proposal, so u rolls the
	// proposal back while v still applies it. Kept as a seeded mutation so
	// the checker permanently proves it still catches it.
	MutNackRoleConfusion
	// MutLaxWatermarkDedup restores the protocol's original duplicate test
	// for incoming proposals, seq <= watermark instead of seq == watermark
	// — a real reordering bug internal/check found on its first run
	// against this machine: a LOCK from an aborted initiation, delayed
	// past a later committed exchange with the same responder, resurrects
	// as a fresh proposal carrying the old (lower) seq; the lax test
	// re-commits it without applying, and the responder then applies
	// -delta, breaking sum conservation. Kept as a seeded mutation so the
	// checker permanently proves it still catches its first catch.
	MutLaxWatermarkDedup
)

// String names the mutation (used in trace JSON).
func (mu Mutation) String() string {
	switch mu {
	case MutNone:
		return "none"
	case MutNackRollbackApplies:
		return "nack-rollback-applies"
	case MutStaleProposalApply:
		return "stale-proposal-apply"
	case MutCommitIgnoresSeq:
		return "commit-ignores-seq"
	case MutNackRoleConfusion:
		return "nack-ignores-role"
	case MutLaxWatermarkDedup:
		return "lax-watermark-dedup"
	default:
		return "unknown"
	}
}

// ParseMutation is the inverse of Mutation.String.
func ParseMutation(s string) (Mutation, bool) {
	for _, mu := range []Mutation{MutNone, MutNackRollbackApplies, MutStaleProposalApply, MutCommitIgnoresSeq, MutNackRoleConfusion, MutLaxWatermarkDedup} {
		if mu.String() == s {
			return mu, true
		}
	}
	return MutNone, false
}

// NodeState is the pure protocol state of one node — everything the
// exchange protocol reads or writes, and nothing the driver owns (clocks,
// RNGs, mailboxes and, in the model checker, which nodes are down live
// with the driver).
type NodeState struct {
	ID int
	X  float64
	// Seq numbers this node's initiations; (ID, Seq) identifies one
	// exchange attempt.
	Seq uint64
	// Lock is the node's one exchange in progress, in either role: one
	// slot, so a node cannot hold both. While it is set the node NACKs
	// incoming LOCKs and its clock fires are skipped.
	Lock LockSlot
	// LastApplied[r] is the highest seq whose proposal from responder r
	// has been applied, so retransmitted duplicates are answered with a
	// fresh COMMIT without reapplying. A per-responder watermark suffices:
	// a responder holds its lock until its proposal is resolved, so it
	// proposes to this node serially, and the one proposal it can be
	// retransmitting is exactly the one that set the watermark (the
	// duplicate test is seq == watermark; a lower seq is a resurrected
	// aborted initiation and is refused — see MutLaxWatermarkDedup).
	LastApplied map[int]uint64
}

// Role is the side of an exchange a locked node holds.
type Role uint8

const (
	RoleNone      Role = iota // unlocked
	RoleInitiator             // sent a LOCK, awaits its PROPOSE
	RoleResponder             // sent a PROPOSE, holds its delta until COMMIT or NACK
)

// LockSlot is a node's exchange in progress, held by value. It stores
// only what no other field determines, which keeps NodeState at 64 bytes:
// the exchange's edge is the one between the node and Peer (graphs are
// simple; see edgeOf), and an initiator's LOCK went out at DueNs -
// Machine.LockTimeoutNs.
type LockSlot struct {
	// D is the held delta (responder): the X of the PROPOSE it
	// retransmits, and what it applies negated on COMMIT.
	D float64
	// Seq is the initiator's sequence number of the exchange.
	Seq uint64
	// DueNs is the slot's one deadline: the lock timeout for an
	// initiator, the resend lease for a responder.
	DueNs int64
	// Peer is the other endpoint. Replies are matched on (peer, seq), not
	// seq alone: seq counters are per-node namespaces, so a late
	// duplicate NACK from an old exchange (carrying the *other* node's
	// seq) could otherwise collide with this node's own counter and abort
	// an unrelated healthy exchange.
	Peer int32
	// Role is the side held; RoleNone means the slot is empty.
	Role Role
}

// NewNodeState returns the initial protocol state of node id with value
// x0. LastApplied stays nil until the first apply: nil-map reads are valid
// and a 10^6-node sharded run would otherwise pay ~50 bytes of empty map
// header per node that most nodes never use.
func NewNodeState(id int, x0 float64) *NodeState {
	return &NodeState{ID: id, X: x0}
}

// noteApplied records the per-responder apply watermark, allocating the map
// on first use.
func (st *NodeState) noteApplied(responder int, seq uint64) {
	if st.LastApplied == nil {
		st.LastApplied = make(map[int]uint64, 1)
	}
	st.LastApplied[responder] = seq
}

// Locked reports whether the node is in the middle of an exchange (either
// role) and therefore refuses new LOCKs and skips its own clock fires.
func (st *NodeState) Locked() bool { return st.Lock.Role != RoleNone }

// holds reports whether the node is locked in role r toward peer for the
// exchange seq.
func (st *NodeState) holds(r Role, peer int, seq uint64) bool {
	return st.Lock.Role == r && st.Lock.Seq == seq && int(st.Lock.Peer) == peer
}

// Clone returns a deep copy: LastApplied is the state's one pointer (the
// checker forks world states per explored action).
func (st *NodeState) Clone() NodeState {
	cp := *st
	cp.LastApplied = maps.Clone(st.LastApplied)
	return cp
}

// HeldProposal rebuilds the PROPOSE a responder holds from its lock slot.
// It is the message Deliver sent when the slot was set: no slot outlives
// the run (the epoch) it was set in, so mc.Epoch is the epoch it carried.
func (mc *Machine) HeldProposal(st *NodeState) Message {
	l := &st.Lock
	return Message{Kind: MsgPropose, Re: MsgLock, From: st.ID, To: int(l.Peer), Seq: l.Seq, Edge: edgeOf(mc.G, st.ID, *l), X: l.D, Epoch: mc.Epoch}
}

// edgeOf returns the edge node's exchange in slot l ticks. The graph is
// simple (Build drops repeated edges), so the two endpoints name it; the
// LOCK that set the slot carried this edge.
func edgeOf(g *graph.Graph, node int, l LockSlot) graph.EdgeID {
	e, _ := g.FindEdge(graph.NodeID(node), graph.NodeID(l.Peer))
	return e
}

// StepOut is the effect of one protocol step: the message to transmit, if
// any, plus flags the driver folds into its accounting. The machine
// mutates only the NodeState it was handed; everything else is reported
// here.
type StepOut struct {
	// Send[0] is the message to hand to the network, already
	// epoch-stamped; a zero Kind means the step sent nothing. No step
	// sends more than one message, so it is held inline.
	Send [1]Message
	// Proposed: a new initiation went out (LOCK sent, initiator locked).
	Proposed bool
	// PendCreated: the responder locked itself and holds a new proposal.
	PendCreated bool
	// Applied: the initiator applied its half (+delta) of its current
	// exchange and unlocked.
	Applied bool
	// Committed: the responder applied its half (-delta); the exchange is
	// committed (ShardRuntime.Exchanges counts these).
	Committed bool
	// Aborted: an outstanding initiation resolved without applying
	// anything (NACK, lock timeout, or crash).
	Aborted bool
	// PendDropped: the held proposal was rolled back without committing.
	PendDropped bool
	// LatencyNs is the LOCK-sent → PROPOSE-applied latency when Applied,
	// -1 otherwise.
	LatencyNs int64
}

// StepKind names the protocol event a driver feeds the machine: one per
// per-kind entry point below.
type StepKind uint8

const (
	StepDeliver StepKind = iota + 1
	StepInitiate
	StepTimeout
	StepResend
	StepCrash
	StepRecover
)

// StepIn is one protocol event: its kind and the inputs that kind reads.
type StepIn struct {
	Kind StepKind
	// Msg is the incoming message (StepDeliver).
	Msg Message
	// He is the incident half-edge to initiate over (StepInitiate).
	He graph.HalfEdge
	// NowNs is the driver's clock, in its own time base.
	NowNs int64
	// Draining mirrors the driver's drain phase (StepDeliver; see Deliver).
	Draining bool
}

// Step is how a driver moves a node: it dispatches in to the matching
// per-kind method and, when rec is non-nil, records the step (receive,
// state changes) in rec. The driver records the step's sends itself, after
// Step returns, as it hands them to its network.
func (mc *Machine) Step(st *NodeState, in StepIn, rec *flight.Recorder) StepOut {
	var pre LockSlot
	if rec != nil {
		// Snapshot the lock slot the step may clear; the record needs it
		// to name the exchange an abort or rollback resolved.
		pre = st.Lock
	}
	var out StepOut
	switch in.Kind {
	case StepDeliver:
		out = mc.Deliver(st, in.Msg, in.NowNs, in.Draining)
	case StepInitiate:
		out = mc.Initiate(st, in.He, in.NowNs)
	case StepTimeout:
		out = mc.TimeoutAwait(st)
	case StepResend:
		out = mc.Resend(st, in.NowNs)
	case StepCrash:
		out = mc.Crash(st)
	case StepRecover:
		out = mc.Recover(st, in.NowNs)
	}
	if rec != nil {
		recordStep(rec, mc.G, st.ID, in, out, pre)
	}
	return out
}

// Deliver processes one incoming message against st. draining mirrors the
// runtime's drain phase: the node answers and resolves but refuses to
// start new exchanges as responder.
func (mc *Machine) Deliver(st *NodeState, m Message, nowNs int64, draining bool) StepOut {
	out := StepOut{LatencyNs: -1}
	if m.Epoch != mc.Epoch {
		// A leftover from a previous Run, stranded in the mailbox across
		// the run boundary (see Message.Epoch). Every previous-run
		// exchange is fully resolved by the time a run returns, so the
		// message is stale by construction.
		return out
	}
	switch m.Kind {
	case MsgLock:
		if st.Locked() || draining {
			out.Send[0] = Message{Kind: MsgNack, Re: MsgLock, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
			return out
		}
		// Propose: compute the initiator's delta and hold it, locked,
		// until the initiator commits or aborts. Nothing is applied yet,
		// so a NACK rolls back to exactly the pre-LOCK state. Note the
		// rule's tick (including the sparse-cut epoch counter) happens
		// here; a subsequently NACKed proposal has still consumed a tick,
		// like a simulator tick whose update is the identity.
		d := mc.Rule.Delta(m.Edge, graph.NodeID(m.From), m.X, st.X)
		st.Lock = LockSlot{Role: RoleResponder, Peer: int32(m.From), Seq: m.Seq, D: d, DueNs: nowNs + mc.ResendEveryNs}
		out.PendCreated = true
		out.Send[0] = Message{Kind: MsgPropose, Re: MsgLock, From: st.ID, To: m.From, Seq: m.Seq, Edge: m.Edge, X: d, Epoch: mc.Epoch}

	case MsgPropose:
		switch {
		case st.holds(RoleInitiator, m.From, m.Seq):
			// Our current exchange: apply our half and commit.
			st.noteApplied(m.From, m.Seq)
			st.X += m.X
			out.Applied = true
			out.LatencyNs = nowNs - (st.Lock.DueNs - mc.LockTimeoutNs) // since the LOCK went out
			st.Lock = LockSlot{}
			out.Send[0] = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		case m.Seq == st.LastApplied[m.From] || (mc.Mutate == MutLaxWatermarkDedup && m.Seq <= st.LastApplied[m.From]):
			// Retransmission of the proposal we already applied (our COMMIT
			// was lost): re-commit without reapplying. The match must be
			// exact: the responder proposes to us serially (it stays locked
			// until its proposal resolves), so the one proposal of ours it
			// can be retransmitting is the one that set the watermark. A
			// proposal *below* the watermark is never a retransmission — it
			// is an aborted initiation's LOCK, delayed past a later
			// committed exchange, resurrected as a fresh proposal — and
			// falls through to the refusal below. (The original `<=` test
			// here re-committed those and broke sum conservation; see
			// MutLaxWatermarkDedup.)
			out.Send[0] = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		default:
			// A proposal for an exchange we already gave up on: refuse,
			// so the responder rolls back. This is what guarantees a
			// committed exchange never uses a stale initiator value.
			if mc.Mutate == MutStaleProposalApply {
				st.noteApplied(m.From, m.Seq)
				st.X += m.X
				out.Applied = true
				out.Send[0] = Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
				return out
			}
			out.Send[0] = Message{Kind: MsgNack, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch}
		}

	case MsgCommit:
		match := st.holds(RoleResponder, m.From, m.Seq)
		if mc.Mutate == MutCommitIgnoresSeq {
			match = st.Lock.Role == RoleResponder && int(st.Lock.Peer) == m.From
		}
		if match {
			st.X -= st.Lock.D
			st.Lock = LockSlot{}
			out.Committed = true
		}

	case MsgNack:
		// A NACK resolves the state matching the request kind it answers,
		// not just (peer, seq): seq counters are per-node namespaces, so
		// while this node's aborted LOCK seq=s is still in flight, the peer
		// can run its own exchange seq=s with this node as responder — and
		// the peer's busy-NACK for the stale LOCK carries exactly the
		// (peer, seq) of this node's held proposal. Without Re that NACK
		// rolls back a proposal the peer is about to apply (see
		// MutNackRoleConfusion, the seed bug internal/check caught).
		answersLock := m.Re == MsgLock || mc.Mutate == MutNackRoleConfusion
		answersProp := m.Re == MsgPropose || mc.Mutate == MutNackRoleConfusion
		switch {
		case answersLock && st.holds(RoleInitiator, m.From, m.Seq):
			st.Lock = LockSlot{}
			out.Aborted = true
		case answersProp && st.holds(RoleResponder, m.From, m.Seq):
			// Our held proposal was refused: roll back (nothing was
			// applied) and unlock.
			if mc.Mutate == MutNackRollbackApplies {
				st.X -= st.Lock.D
			}
			st.Lock = LockSlot{}
			out.PendDropped = true
		}
	}
	return out
}

// Initiate starts an exchange over the given incident half-edge. The
// caller guarantees st is unlocked (the runtime skips clock fires while
// locked; the checker only enables Initiate on unlocked nodes).
func (mc *Machine) Initiate(st *NodeState, he graph.HalfEdge, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Locked() {
		return out
	}
	st.Seq++
	st.Lock = LockSlot{Role: RoleInitiator, Peer: int32(he.Peer), Seq: st.Seq, DueNs: nowNs + mc.LockTimeoutNs}
	out.Proposed = true
	out.Send[0] = Message{Kind: MsgLock, From: st.ID, To: int(he.Peer), Seq: st.Seq, Edge: he.Edge, X: st.X, Epoch: mc.Epoch}
	return out
}

// TimeoutAwait gives up the outstanding initiation: the LOCK or its
// PROPOSE was lost (or the peer is saturated). A proposal that arrives
// after this point is refused, so the responder rolls back and nothing
// commits. When the timeout fires is the driver's decision; the checker
// fires it at arbitrary points to model arbitrary timing.
func (mc *Machine) TimeoutAwait(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Lock.Role == RoleInitiator {
		st.Lock = LockSlot{}
		out.Aborted = true
	}
	return out
}

// Resend retransmits the held proposal and renews its lease.
func (mc *Machine) Resend(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Lock.Role == RoleResponder {
		out.Send[0] = mc.HeldProposal(st)
		st.Lock.DueNs = nowNs + mc.ResendEveryNs
	}
	return out
}

// Crash fail-stops the node: the outstanding initiation (volatile) aborts;
// value, seq counter, watermarks and the held proposal survive on stable
// storage. The driver is responsible for losing messages delivered while
// the node is down.
func (mc *Machine) Crash(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Lock.Role == RoleInitiator {
		st.Lock = LockSlot{}
		out.Aborted = true
	}
	return out
}

// Recover brings a crashed node back: its held proposal, if any, becomes
// due for immediate retransmission so the stalled exchange resolves.
func (mc *Machine) Recover(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Lock.Role == RoleResponder {
		st.Lock.DueNs = nowNs
	}
	return out
}
