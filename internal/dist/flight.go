package dist

import (
	"time"

	"sparsecut/internal/flight"
)

// This file is the runtime's side of the causal flight recorder. The
// translation from protocol steps to flight.Records lives in
// FlightEmitter, shared by both drivers of the Machine — the live runtime
// (shard.go, wall-clock time) and the model checker's replayer
// (internal/check, virtual ticks) — so a production capture and a
// counterexample replay stitch into identical span structures.
// Everything is behind the nil-recorder contract: with
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

// FlightPre snapshots the protocol state a step may consume, captured
// with FlightPreOf before the machine runs: a StepOut alone does not
// identify which exchange an abort or a rollback resolved (the Await/Pend
// it cleared is already gone).
type FlightPre struct {
	hadAwait  bool
	awaitSeq  uint64
	awaitPeer int
	hadPend   bool
	pendMsg   Message
}

// FlightPreOf captures st's pre-step snapshot. Call before the machine
// method, pass to the matching FlightEmitter method after.
func FlightPreOf(st *NodeState) FlightPre {
	var p FlightPre
	if st.Await != nil {
		p.hadAwait, p.awaitSeq, p.awaitPeer = true, st.Await.Seq, st.Await.Peer
	}
	if st.Pend != nil {
		p.hadPend, p.pendMsg = true, st.Pend.Msg
	}
	return p
}

// FlightEmitter translates protocol steps into flight records, one method
// per Machine entry point plus the network events. Both drivers use it;
// the records read recv → state change → send in emission order, so call
// the step method before recording the step's sends.
type FlightEmitter struct {
	Rec *flight.Recorder
}

// Deliver records an incoming message and the state changes it caused.
func (fe FlightEmitter) Deliver(node int, m Message, out StepOut, pre FlightPre, nowNs int64) {
	id := int32(node)
	fe.Rec.Record(msgRecord(flight.EvRecv, m, node, nowNs))
	if out.PendCreated {
		d := 0.0
		for _, sm := range out.Send {
			if sm.Kind == MsgPropose {
				d = sm.X
			}
		}
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: m.Seq, X: d,
			Init: int32(m.From), Node: id, Peer: int32(m.From), Edge: int32(m.Edge), Kind: flight.EvPendHold})
	}
	if out.Applied {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: m.Seq, X: m.X,
			Init: id, Node: id, Peer: int32(m.From), Edge: msgEdge(m), Kind: flight.EvApply})
	}
	if out.Committed {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.pendMsg.Seq, X: pre.pendMsg.X,
			Init: int32(pre.pendMsg.To), Node: id, Peer: int32(pre.pendMsg.To), Edge: int32(pre.pendMsg.Edge), Kind: flight.EvCommit})
	}
	if out.Aborted {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: m.Seq,
			Init: id, Node: id, Peer: int32(m.From), Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonNack})
	}
	if out.PendDropped {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.pendMsg.Seq,
			Init: int32(pre.pendMsg.To), Node: id, Peer: int32(pre.pendMsg.To), Edge: int32(pre.pendMsg.Edge), Kind: flight.EvPendDrop})
	}
}

// Initiate records a new initiation (reads the LOCK out of out.Send).
func (fe FlightEmitter) Initiate(node int, out StepOut, nowNs int64) {
	if !out.Proposed || len(out.Send) == 0 {
		return
	}
	lk := out.Send[0]
	fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: lk.Seq, X: lk.X,
		Init: int32(node), Node: int32(node), Peer: int32(lk.To), Edge: int32(lk.Edge), Kind: flight.EvInitiate})
}

// Timeout records a lock-timeout fire and the abort it resolved.
func (fe FlightEmitter) Timeout(node int, out StepOut, pre FlightPre, nowNs int64) {
	if pre.hadAwait {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.awaitSeq,
			Init: int32(node), Node: int32(node), Peer: int32(pre.awaitPeer), Edge: flight.NoNode, Kind: flight.EvTimeout})
	}
	if out.Aborted {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.awaitSeq,
			Init: int32(node), Node: int32(node), Peer: int32(pre.awaitPeer), Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonTimeout})
	}
}

// Resend records a retransmission-lease fire (the proposal's re-send is a
// separate Send record).
func (fe FlightEmitter) Resend(node int, pre FlightPre, nowNs int64) {
	if !pre.hadPend {
		return
	}
	fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.pendMsg.Seq,
		Init: int32(pre.pendMsg.To), Node: int32(node), Peer: int32(pre.pendMsg.To), Edge: int32(pre.pendMsg.Edge), Kind: flight.EvResend})
}

// Crash records a fail-stop and the volatile initiation it aborted.
func (fe FlightEmitter) Crash(node int, out StepOut, pre FlightPre, nowNs int64) {
	fe.Rec.Record(flight.Record{TimeNs: nowNs,
		Init: flight.NoNode, Node: int32(node), Peer: flight.NoNode, Edge: flight.NoNode, Kind: flight.EvCrash})
	if out.Aborted {
		fe.Rec.Record(flight.Record{TimeNs: nowNs, Seq: pre.awaitSeq,
			Init: int32(node), Node: int32(node), Peer: int32(pre.awaitPeer), Edge: flight.NoNode, Kind: flight.EvAbort, Flags: flight.ReasonCrash})
	}
}

// Recover records a node coming back from a crash.
func (fe FlightEmitter) Recover(node int, nowNs int64) {
	fe.Rec.Record(flight.Record{TimeNs: nowNs,
		Init: flight.NoNode, Node: int32(node), Peer: flight.NoNode, Edge: flight.NoNode, Kind: flight.EvRecover})
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

// emitStepRec is the live runtime's dispatch into the shared emitter: every
// protocol step a shard takes goes through this one function, and the
// lockstep-equivalence test re-emits the replayed steps through it too, so
// live and replayed captures are structurally identical.
func emitStepRec(rec *flight.Recorder, id int, kind stepKind, m Message, out StepOut, pre FlightPre, nowNs int64) {
	fe := FlightEmitter{Rec: rec}
	switch kind {
	case stepDeliver:
		fe.Deliver(id, m, out, pre, nowNs)
	case stepInitiate:
		fe.Initiate(id, out, nowNs)
	case stepTimeout:
		fe.Timeout(id, out, pre, nowNs)
	case stepResend:
		fe.Resend(id, pre, nowNs)
	case stepCrash:
		fe.Crash(id, out, pre, nowNs)
	case stepRecover:
		fe.Recover(id, nowNs)
	}
}
