package dist

import (
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
// outstanding initiation (Await) is volatile and aborts at crash time.
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
	// LockTimeoutNs and ResendEveryNs set the deadlines the machine writes
	// into Await/Pend state, in the driver's time base (wall nanoseconds
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
// RNGs, mailboxes, crash schedules live with the driver).
type NodeState struct {
	ID int
	X  float64
	// Seq numbers this node's initiations; (ID, Seq) identifies one
	// exchange attempt.
	Seq uint64
	// Await is the outstanding initiation, if any; Pend the held
	// (uncommitted) proposal awaiting its commit or abort, if any. The
	// node is locked while either is non-nil (it NACKs incoming LOCKs and
	// its clock fires are skipped).
	Await *AwaitState
	Pend  *PendState
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

// AwaitState is an outstanding initiation.
type AwaitState struct {
	Seq uint64
	// Peer is the responder this initiation locked toward. Replies are
	// matched on (peer, seq), not seq alone: seq counters are per-node
	// namespaces, so a late duplicate NACK from an old exchange (carrying
	// the *other* node's seq) could otherwise collide with this node's
	// own counter and abort an unrelated healthy exchange.
	Peer       int
	DeadlineNs int64
	// StartedNs is when the initiation's LOCK went out; StepOut.LatencyNs
	// measures LOCK-sent → PROPOSE-applied from it.
	StartedNs int64
}

// PendState is a held (uncommitted) proposal. Msg is the PROPOSE to
// retransmit; Msg.X is the held delta.
type PendState struct {
	Msg      Message
	ResendNs int64
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
func (st *NodeState) Locked() bool { return st.Await != nil || st.Pend != nil }

// Clone returns a deep copy (the checker forks world states per explored
// action).
func (st *NodeState) Clone() *NodeState {
	cp := *st
	if st.Await != nil {
		a := *st.Await
		cp.Await = &a
	}
	if st.Pend != nil {
		p := *st.Pend
		cp.Pend = &p
	}
	if st.LastApplied != nil {
		cp.LastApplied = make(map[int]uint64, len(st.LastApplied))
		for k, v := range st.LastApplied {
			cp.LastApplied[k] = v
		}
	}
	return &cp
}

// StepOut is the effect of one protocol step: the messages to transmit
// plus flags the driver folds into its accounting. The machine mutates
// only the NodeState it was handed; everything else is reported here.
type StepOut struct {
	// Send is the messages to hand to the network, already
	// epoch-stamped, in order.
	Send []Message
	// Proposed: a new initiation went out (LOCK sent, Await created).
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

func (out *StepOut) send(m Message) { out.Send = append(out.Send, m) }

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
	var pre flightPre
	if rec != nil {
		// Snapshot the Await/Pend identity the step may clear; the record
		// needs it to name the exchange an abort or rollback resolved.
		pre = flightPreOf(st)
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
		recordStep(rec, st.ID, in, out, pre)
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
			out.send(Message{Kind: MsgNack, Re: MsgLock, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch})
			return out
		}
		// Propose: compute the initiator's delta and hold it, locked,
		// until the initiator commits or aborts. Nothing is applied yet,
		// so a NACK rolls back to exactly the pre-LOCK state. Note the
		// rule's tick (including the sparse-cut epoch counter) happens
		// here; a subsequently NACKed proposal has still consumed a tick,
		// like a simulator tick whose update is the identity.
		d := mc.Rule.Delta(m.Edge, graph.NodeID(m.From), m.X, st.X)
		prop := Message{Kind: MsgPropose, Re: MsgLock, From: st.ID, To: m.From, Seq: m.Seq, Edge: m.Edge, X: d, Epoch: mc.Epoch}
		st.Pend = &PendState{Msg: prop, ResendNs: nowNs + mc.ResendEveryNs}
		out.PendCreated = true
		out.send(prop)

	case MsgPropose:
		switch {
		case st.Await != nil && st.Await.Seq == m.Seq && st.Await.Peer == m.From:
			// Our current exchange: apply our half and commit.
			st.noteApplied(m.From, m.Seq)
			st.X += m.X
			out.Applied = true
			out.LatencyNs = nowNs - st.Await.StartedNs
			st.Await = nil
			out.send(Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch})
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
			out.send(Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch})
		default:
			// A proposal for an exchange we already gave up on: refuse,
			// so the responder rolls back. This is what guarantees a
			// committed exchange never uses a stale initiator value.
			if mc.Mutate == MutStaleProposalApply {
				st.noteApplied(m.From, m.Seq)
				st.X += m.X
				out.Applied = true
				out.send(Message{Kind: MsgCommit, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch})
				return out
			}
			out.send(Message{Kind: MsgNack, Re: MsgPropose, From: st.ID, To: m.From, Seq: m.Seq, Epoch: mc.Epoch})
		}

	case MsgCommit:
		match := st.Pend != nil && st.Pend.Msg.Seq == m.Seq && st.Pend.Msg.To == m.From
		if mc.Mutate == MutCommitIgnoresSeq {
			match = st.Pend != nil && st.Pend.Msg.To == m.From
		}
		if match {
			st.X -= st.Pend.Msg.X
			st.Pend = nil
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
		if answersLock && st.Await != nil && st.Await.Seq == m.Seq && st.Await.Peer == m.From {
			st.Await = nil
			out.Aborted = true
		}
		if answersProp && st.Pend != nil && st.Pend.Msg.Seq == m.Seq && st.Pend.Msg.To == m.From {
			// Our held proposal was refused: roll back (nothing was
			// applied) and unlock.
			if mc.Mutate == MutNackRollbackApplies {
				st.X -= st.Pend.Msg.X
			}
			st.Pend = nil
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
	st.Await = &AwaitState{Seq: st.Seq, Peer: int(he.Peer), DeadlineNs: nowNs + mc.LockTimeoutNs, StartedNs: nowNs}
	out.Proposed = true
	out.send(Message{Kind: MsgLock, From: st.ID, To: int(he.Peer), Seq: st.Seq, Edge: he.Edge, X: st.X, Epoch: mc.Epoch})
	return out
}

// TimeoutAwait gives up the outstanding initiation: the LOCK or its
// PROPOSE was lost (or the peer is saturated). A proposal that arrives
// after this point is refused, so the responder rolls back and nothing
// commits. When the timeout fires is the driver's decision; the checker
// fires it at arbitrary points to model arbitrary timing.
func (mc *Machine) TimeoutAwait(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Await != nil {
		st.Await = nil
		out.Aborted = true
	}
	return out
}

// Resend retransmits the held proposal and renews its lease.
func (mc *Machine) Resend(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Pend != nil {
		out.send(st.Pend.Msg)
		st.Pend.ResendNs = nowNs + mc.ResendEveryNs
	}
	return out
}

// Crash fail-stops the node: the outstanding initiation (volatile) aborts;
// value, seq counter, watermarks and the held proposal survive on stable
// storage. The driver is responsible for losing messages delivered while
// the node is down.
func (mc *Machine) Crash(st *NodeState) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Await != nil {
		st.Await = nil
		out.Aborted = true
	}
	return out
}

// Recover brings a crashed node back: its held proposal, if any, becomes
// due for immediate retransmission so the stalled exchange resolves.
func (mc *Machine) Recover(st *NodeState, nowNs int64) StepOut {
	out := StepOut{LatencyNs: -1}
	if st.Pend != nil {
		st.Pend.ResendNs = nowNs
	}
	return out
}
