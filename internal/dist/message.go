package dist

import (
	"fmt"

	"sparsecut/internal/graph"
)

// MsgKind discriminates protocol messages. See machine.go for the exchange
// protocol that produces them.
type MsgKind uint8

const (
	// MsgLock is initiator → responder: request an exchange over Edge,
	// carrying the initiator's current value in X.
	MsgLock MsgKind = iota + 1
	// MsgPropose is responder → initiator: the responder has locked
	// itself and computed the exchange; X carries the delta the initiator
	// would add to its value. Nothing is committed yet. Proposals are
	// retransmitted until answered with a COMMIT or a NACK.
	MsgPropose
	// MsgNack aborts. Responder → initiator: the responder was locked (or
	// draining). Initiator → responder: the proposal arrived for an
	// exchange the initiator already gave up on. Either way no state
	// changed anywhere.
	MsgNack
	// MsgCommit is initiator → responder: the initiator has applied its
	// half (+X); the responder applies the negation and unlocks.
	MsgCommit
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgLock:
		return "LOCK"
	case MsgPropose:
		return "PROPOSE"
	case MsgNack:
		return "NACK"
	case MsgCommit:
		return "COMMIT"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one protocol message.
type Message struct {
	Kind MsgKind
	// From and To are protocol endpoints: node IDs.
	From, To int
	// Epoch is the runtime's Run that produced the message. Receivers drop
	// messages from older runs: a stale LOCK must not start an exchange
	// against a previous run's value snapshot, and every exchange of a
	// finished run is already resolved (runs end at quiescence), so
	// dropping is safe.
	Epoch uint64
	// Seq is the initiator's exchange sequence number; (initiator, Seq)
	// uniquely identifies one exchange attempt.
	Seq uint64
	// Re is the request kind this message answers (MsgLock for PROPOSE and
	// the busy-responder NACK, MsgPropose for COMMIT and the
	// stale-proposal NACK; zero on LOCK, which answers nothing). NACK
	// handling depends on it: seq counters are per-node namespaces, so a
	// NACK refusing my LOCK and a NACK refusing my held proposal can carry
	// the same (peer, seq) — only the answered kind tells an initiator
	// abort from a responder rollback (see Machine.Deliver and
	// MutNackRoleConfusion for the collision this prevents).
	Re MsgKind
	// Edge is the graph edge the exchange ticks.
	Edge graph.EdgeID
	// X is the payload: the initiator's value in a LOCK, the initiator's
	// delta in a PROPOSE, unused otherwise.
	X float64
}
