// Package flight is the runtime's causal flight recorder: an always-on,
// bounded-memory capture of the exchange protocol's per-node event stream,
// plus the causal stitcher that reconstructs per-exchange span trees from
// the merged rings after the fact.
//
// The package is deliberately dependency-free (stdlib only) and knows
// nothing about internal/dist: records carry plain integers, and the
// message-kind byte values mirror dist.MsgKind one-for-one (asserted by a
// cross-check test in internal/dist). Both drivers of the exchange
// protocol emit into the same recorder — the live shard runtime
// (wall-clock timestamps, scheduling-ordered) and the model checker's
// deterministic replayer (virtual-tick timestamps, fully reproducible) —
// so a production incident and a model-checker counterexample render
// through the same span-tree tooling (cmd/tracez).
//
// Memory is bounded by construction: each node owns a ring of fixed-size
// records that grows as records arrive, never past its fixed capacity, and
// when the full ring wraps the oldest records are overwritten (counted,
// never reallocated). A nil *Recorder is the
// disabled recorder: Record is a no-op and Snapshot returns an empty
// dump, the same contract as internal/metrics' nil registry, so call
// sites need no enable flag of their own.
//
// See DESIGN.md §12 for the record layout, ring semantics, the stitching
// algorithm and the nil contract.
package flight

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// EventKind discriminates flight records. The values are part of the JSON
// dump format and must not be renumbered.
type EventKind uint8

const (
	// EvInitiate: the initiator started an exchange — its LOCK went out
	// and its Await state was created. Seq/Edge/X are the LOCK's.
	EvInitiate EventKind = iota + 1
	// EvSend: a protocol message was handed to the transport. Msg/Re are
	// the message's kind and lineage; Node is the sender.
	EvSend
	// EvRecv: a protocol message was delivered to the protocol machine.
	// Node is the receiver.
	EvRecv
	// EvApply: the initiator applied its half (+delta) of its current
	// exchange; X is the delta.
	EvApply
	// EvCommit: the responder applied its half (−delta); the exchange is
	// committed.
	EvCommit
	// EvAbort: an outstanding initiation resolved without applying
	// anything. Flags carries the reason (ReasonNack/Timeout/Crash).
	EvAbort
	// EvPendHold: the responder locked itself and holds a new proposal;
	// X is the held delta.
	EvPendHold
	// EvPendDrop: the held proposal was rolled back without committing.
	EvPendDrop
	// EvTimeout: the initiator's lock timeout fired.
	EvTimeout
	// EvResend: the responder's retransmission lease fired; the held
	// proposal goes out again.
	EvResend
	// EvCrash: the node fail-stopped (not tied to one exchange; the
	// volatile initiation's abort is a separate EvAbort record).
	EvCrash
	// EvRecover: the node came back from a crash.
	EvRecover
	// EvNetDrop: a message was lost in the network — Flags tells Bernoulli
	// loss (ReasonLoss), mailbox congestion (ReasonCongestion), a
	// model-checker drop action (ReasonSchedule), or delivery to a dead
	// node (ReasonDead).
	EvNetDrop
	// EvNetDup: the model checker duplicated an in-flight message.
	EvNetDup
)

// String names the event kind (used by the renderers and JSON dumps).
func (k EventKind) String() string {
	switch k {
	case EvInitiate:
		return "initiate"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvApply:
		return "apply"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvPendHold:
		return "hold"
	case EvPendDrop:
		return "rollback"
	case EvTimeout:
		return "timeout"
	case EvResend:
		return "resend"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvNetDrop:
		return "net-drop"
	case EvNetDup:
		return "net-dup"
	default:
		return "ev?"
	}
}

// Message-kind byte values, wire-compatible with dist.MsgKind (asserted by
// TestFlightMsgKindsMatch in internal/dist). Zero means "no message".
const (
	MsgNone    uint8 = 0
	MsgLock    uint8 = 1
	MsgPropose uint8 = 2
	MsgNack    uint8 = 3
	MsgCommit  uint8 = 4
)

// MsgName names a message-kind byte.
func MsgName(k uint8) string {
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
		return "msg?"
	}
}

// Flags values. The low bits are a reason code; reasons are mutually
// exclusive per record.
const (
	ReasonNone       uint8 = 0
	ReasonNack       uint8 = 1 // abort: the peer refused the LOCK
	ReasonTimeout    uint8 = 2 // abort: the lock timeout fired first
	ReasonCrash      uint8 = 3 // abort: the initiator crashed
	ReasonLoss       uint8 = 4 // net-drop: Bernoulli message loss
	ReasonCongestion uint8 = 5 // net-drop: destination mailbox full
	ReasonSchedule   uint8 = 6 // net-drop/dup: a model-checker action
	ReasonDead       uint8 = 7 // net-drop: the destination node was down
)

// ReasonName names a reason code.
func ReasonName(f uint8) string {
	switch f {
	case ReasonNone:
		return ""
	case ReasonNack:
		return "nack-busy"
	case ReasonTimeout:
		return "timeout"
	case ReasonCrash:
		return "crash"
	case ReasonLoss:
		return "loss"
	case ReasonCongestion:
		return "congestion"
	case ReasonSchedule:
		return "schedule"
	case ReasonDead:
		return "dead-node"
	default:
		return "reason?"
	}
}

// NoNode marks Init/Peer/Edge fields that do not apply to a record.
const NoNode = -1

// Record is one fixed-size (56-byte) flight event. Every field is plain
// data, so recording is a struct copy; the JSON dump uses the short field
// names below. Init is the causal key: the id of the node that initiated
// the exchange this event belongs to ((Init, Seq) names one exchange
// attempt), or NoNode for events outside any exchange (crash, recover).
// Emitters derive Init from the message's Kind/Re lineage — see
// dist.Message.Initiator.
type Record struct {
	// TimeNs is the event time: wall nanoseconds in the live runtime,
	// virtual ticks in the model checker.
	TimeNs int64 `json:"t"`
	// Seq is the exchange sequence number ((Init, Seq) is the span key).
	Seq uint64 `json:"seq"`
	// X is the payload: the initiator's value on a LOCK, the delta on a
	// PROPOSE/apply/commit, 0 otherwise.
	X float64 `json:"x"`
	// Init is the exchange initiator, or NoNode.
	Init int32 `json:"init"`
	// Node is the node that recorded the event.
	Node int32 `json:"node"`
	// Peer is the other endpoint of the message or exchange, or NoNode.
	Peer int32 `json:"peer"`
	// Edge is the graph edge the exchange runs over, or NoNode.
	Edge int32 `json:"edge"`
	// Kind is the event kind.
	Kind EventKind `json:"ev"`
	// Msg and Re are the message's kind and answered-kind for message
	// events (EvSend/EvRecv/EvNetDrop/EvNetDup), MsgNone otherwise.
	Msg uint8 `json:"msg,omitempty"`
	Re  uint8 `json:"re,omitempty"`
	// Flags carries the reason code.
	Flags uint8 `json:"flags,omitempty"`

	// gseq is the recorder-global arrival index, the total order the
	// merged dump is sorted by. It is assigned by Record, never
	// serialized (position in Dump.Events preserves it).
	gseq uint64
}

// ring is one node's bounded event buffer: it grows on demand up to the
// recorder's capacity, then overwrites the oldest record. A mutex (not
// atomics) keeps concurrent writers race-clean; in the live runtime each
// ring has a single writer (its node's shard loop, which also records the
// node's sends lost to loss or congestion), so the lock is uncontended.
type ring struct {
	mu  sync.Mutex
	buf []Record // len(buf) == min(n, capacity)
	n   uint64   // total records ever written (n - len(buf) were overwritten)
}

// minRingAlloc is the first allocation of a ring that receives a record.
const minRingAlloc = 16

// put appends rec, growing buf by doubling (clamped to limit) until it
// holds limit records; from then on it overwrites the oldest, at slot
// n mod limit.
func (r *ring) put(rec Record, limit int) {
	r.mu.Lock()
	if l := len(r.buf); l < limit {
		if l == cap(r.buf) {
			grown := make([]Record, l, min(max(2*l, minRingAlloc), limit))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.n%uint64(limit)] = rec
	}
	r.n++
	r.mu.Unlock()
}

// live returns how many records the ring holds.
func (r *ring) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// snapshot appends the ring's live records, oldest first, to dst.
func (r *ring) snapshot(dst []Record) ([]Record, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := uint64(len(r.buf))
	start, count := uint64(0), r.n
	if r.n > c {
		start, count = r.n-c, c
	}
	for i := uint64(0); i < count; i++ {
		dst = append(dst, r.buf[(start+i)%c])
	}
	return dst, r.n - count
}

// DefaultRingCap is the per-node ring capacity used when New is asked for
// zero or less: 4096 records (at most 224 KiB per node, allocated as
// records arrive) keeps minutes of protocol history at typical exchange
// rates.
const DefaultRingCap = 4096

// Recorder is the per-node flight recorder. Construct with New; a nil
// *Recorder is the disabled recorder (Record no-ops, Snapshot is empty).
type Recorder struct {
	rings   []ring
	ringCap int
	gseq    atomic.Uint64
}

// New returns a recorder with one ring of up to perNodeCap records for
// each of nodes nodes (perNodeCap <= 0 selects DefaultRingCap). No ring
// is allocated until its node records.
func New(nodes, perNodeCap int) *Recorder {
	if nodes < 1 {
		nodes = 1
	}
	if perNodeCap <= 0 {
		perNodeCap = DefaultRingCap
	}
	return &Recorder{rings: make([]ring, nodes), ringCap: perNodeCap}
}

// Record appends rec to node rec.Node's ring (clamped into range), stamping
// the recorder-global arrival index. No-op on a nil recorder — the hot
// paths of internal/dist call it unconditionally.
func (rc *Recorder) Record(rec Record) {
	if rc == nil {
		return
	}
	rec.gseq = rc.gseq.Add(1)
	n := int(rec.Node)
	if n < 0 || n >= len(rc.rings) {
		n = 0
	}
	rc.rings[n].put(rec, rc.ringCap)
}

// Nodes returns the number of per-node rings (0 on a nil recorder).
func (rc *Recorder) Nodes() int {
	if rc == nil {
		return 0
	}
	return len(rc.rings)
}

// Snapshot merges every ring into a Dump: all live records in recorder-
// global arrival order, plus the count of records the rings overwrote.
// Safe to call while writers are active (per-ring cut consistency, like a
// metrics snapshot); quiescent snapshots are exact and — given identical
// recorded histories — byte-identical when encoded.
func (rc *Recorder) Snapshot() *Dump {
	d := &Dump{Version: DumpVersion}
	if rc == nil {
		return d
	}
	d.Nodes = len(rc.rings)
	d.RingCap = rc.ringCap
	// Size the merged copy once. The count is only a capacity hint: a
	// writer that records meanwhile just makes append grow it.
	live := 0
	for i := range rc.rings {
		live += rc.rings[i].live()
	}
	d.Events = make([]Record, 0, live)
	for i := range rc.rings {
		var lost uint64
		d.Events, lost = rc.rings[i].snapshot(d.Events)
		d.Overwritten += int64(lost)
	}
	// Every gseq is unique, so this order is total and stability moot.
	slices.SortFunc(d.Events, func(a, b Record) int { return cmp.Compare(a.gseq, b.gseq) })
	return d
}
