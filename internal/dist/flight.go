package dist

import (
	"time"

	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
)

// This file is the runtime's side of the causal flight recorder. The
// translation from protocol steps to flight.Records is recordStep, which
// Machine.Step runs for both drivers of the Machine — the live runtime
// (shard.go, wall-clock time) and the model checker's replayer
// (internal/check, virtual ticks) — so a production capture and a
// counterexample replay stitch into identical span structures. The
// network events the drivers own (sends, drops, duplications) go through
// FlightEmitter. Everything is behind the nil-recorder contract: with
// ClusterConfig.Flight unset the only cost is one pointer test per step.

// Initiator returns the id of the node that initiated the exchange this
// message belongs to, derived from the Kind/Re lineage. (initiator, Seq)
// is the causal key the flight recorder's span stitcher groups on: a LOCK
// travels initiator→responder, a PROPOSE answers it back, a COMMIT goes
// forward again, and a NACK's direction depends on which request it
// answers (Re) — a busy responder refusing a LOCK versus an initiator
// refusing a stale proposal.
func (m Message) Initiator() int {
	switch m.Kind {
	case MsgLock, MsgCommit:
		return m.From
	case MsgPropose:
		return m.To
	case MsgNack:
		if m.Re == MsgLock {
			return m.To
		}
		return m.From
	}
	return -1
}

// msgEdge extracts the record's edge field: only LOCK and PROPOSE carry
// the exchange's edge on the wire (edge 0 is a valid id, so the absent
// edge must be explicit).
func msgEdge(m Message) int32 {
	if m.Kind == MsgLock || m.Kind == MsgPropose {
		return int32(m.Edge)
	}
	return flight.NoNode
}

// msgRecord builds the common message-event record as observed by node:
// Node is the observer, Peer the other endpoint.
func msgRecord(kind flight.EventKind, m Message, node int, nowNs int64) flight.Record {
	peer := m.To
	if node == m.To {
		peer = m.From
	}
	return flight.Record{
		TimeNs: nowNs, Seq: m.Seq, X: m.X,
		Init: int32(m.Initiator()), Node: int32(node), Peer: int32(peer),
		Edge: msgEdge(m), Kind: kind, Msg: uint8(m.Kind), Re: uint8(m.Re),
	}
}

// recordNetDrop records a message lost in the network, attributed to ring
// `node` with the given reason. Nil-safe; the shard loops call it on their
// loss, congestion and dead-destination paths with wall-clock time.
func recordNetDrop(rec *flight.Recorder, m Message, node int, reason uint8) {
	if rec == nil {
		return
	}
	FlightEmitter{Rec: rec}.NetDrop(m, node, reason, time.Now().UnixNano())
}

// recordStep records one protocol step of node: the receive and the state
// changes it caused, in that order. The step's sends are recorded after
// it, by the driver, so a capture reads recv → state change → send. pre is
// the node's lock slot before the step: a StepOut alone does not identify
// which exchange an abort or a rollback resolved (the slot it cleared is
// already gone).
func recordStep(rec *flight.Recorder, g *graph.Graph, node int, in StepIn, out StepOut, pre LockSlot) {
	id, now, m := int32(node), in.NowNs, in.Msg
	switch in.Kind {
	case StepDeliver:
		rec.Record(msgRecord(flight.EvRecv, m, node, now))
		if out.PendCreated {
			rec.Record(flight.Record{TimeNs: now, Seq: m.Seq, X: out.Send[0].X,
				Init: int32(m.From), Node: id, Peer: int32(m.From), Edge: int32(m.Edge), Kind: flight.EvPendHold})
		}
		if out.Applied {
			rec.Record(flight.Record{TimeNs: now, Seq: m.Seq, X: m.X,
				Init: id, Node: id, Peer: int32(m.From), Edge: msgEdge(m), Kind: flight.EvApply})
		}
		if out.Committed {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq, X: pre.D,
				Init: pre.Peer, Node: id, Peer: pre.Peer, Edge: int32(edgeOf(g, node, pre)), Kind: flight.EvCommit})
		}
		if out.Aborted {
			rec.Record(flight.Record{TimeNs: now, Seq: m.Seq,
				Init: id, Node: id, Peer: int32(m.From), Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonNack})
		}
		if out.PendDropped {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq,
				Init: pre.Peer, Node: id, Peer: pre.Peer, Edge: int32(edgeOf(g, node, pre)), Kind: flight.EvPendDrop})
		}
	case StepInitiate:
		if !out.Proposed {
			return
		}
		lk := out.Send[0]
		rec.Record(flight.Record{TimeNs: now, Seq: lk.Seq, X: lk.X,
			Init: id, Node: id, Peer: int32(lk.To), Edge: int32(lk.Edge), Kind: flight.EvInitiate})
	case StepTimeout:
		if pre.Role == RoleInitiator {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq,
				Init: id, Node: id, Peer: pre.Peer, Edge: flight.NoNode, Kind: flight.EvTimeout})
		}
		if out.Aborted {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq,
				Init: id, Node: id, Peer: pre.Peer, Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonTimeout})
		}
	case StepResend:
		// The proposal's re-send is a separate Send record.
		if pre.Role == RoleResponder {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq,
				Init: pre.Peer, Node: id, Peer: pre.Peer, Edge: int32(edgeOf(g, node, pre)), Kind: flight.EvResend})
		}
	case StepCrash:
		rec.Record(flight.Record{TimeNs: now,
			Init: flight.NoNode, Node: id, Peer: flight.NoNode, Edge: flight.NoNode, Kind: flight.EvCrash})
		if out.Aborted {
			rec.Record(flight.Record{TimeNs: now, Seq: pre.Seq,
				Init: id, Node: id, Peer: pre.Peer, Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonCrash})
		}
	case StepRecover:
		rec.Record(flight.Record{TimeNs: now,
			Init: flight.NoNode, Node: id, Peer: flight.NoNode, Edge: flight.NoNode, Kind: flight.EvRecover})
	}
}

// FlightEmitter records the network events a driver owns: the sends it
// hands to its network after a step, and the messages the network loses
// or (in the model checker) duplicates.
type FlightEmitter struct {
	Rec *flight.Recorder
}

// Send records a protocol message handed to the network by node.
func (fe FlightEmitter) Send(node int, m Message, nowNs int64) {
	fe.Rec.Record(msgRecord(flight.EvSend, m, node, nowNs))
}

// NetDrop records a message lost in the network, attributed to ring node.
func (fe FlightEmitter) NetDrop(m Message, node int, reason uint8, nowNs int64) {
	r := msgRecord(flight.EvNetDrop, m, node, nowNs)
	r.Flags = reason
	fe.Rec.Record(r)
}

// NetDup records a model-checker message duplication.
func (fe FlightEmitter) NetDup(m Message, nowNs int64) {
	r := msgRecord(flight.EvNetDup, m, m.From, nowNs)
	r.Flags = flight.ReasonSchedule
	fe.Rec.Record(r)
}
