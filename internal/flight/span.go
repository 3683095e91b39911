package flight

import "sort"

// Span is one reconstructed exchange attempt: every record whose causal
// key is (Init, Seq), with the protocol's phase timestamps pulled out.
// A phase timestamp is -1 when the phase was never observed — either it
// never happened (an aborted exchange has no apply) or its records were
// overwritten by ring wrap-around.
type Span struct {
	// Init and Seq are the causal key; Resp is the responder, Edge the
	// graph edge (NoNode when no record named them).
	Init int    `json:"init"`
	Seq  uint64 `json:"seq"`
	Resp int    `json:"resp"`
	Edge int    `json:"edge"`
	// Outcome is "committed", "aborted" or "unresolved" (truncated
	// capture, or an exchange still in flight at snapshot time).
	Outcome string `json:"outcome"`
	// Reason explains an abort: "nack-busy", "timeout" or "crash".
	Reason string `json:"reason,omitempty"`
	// The phase timestamps (ns; -1 unobserved):
	// LockNs    — the initiator sent its LOCK (EvInitiate);
	// HoldNs    — the responder locked itself and held the proposal;
	// ApplyNs   — the initiator applied +delta (LOCK→PROPOSE round trip);
	// EndNs     — the exchange fully resolved (commit, rollback or abort).
	LockNs  int64 `json:"lock_ns"`
	HoldNs  int64 `json:"hold_ns"`
	ApplyNs int64 `json:"apply_ns"`
	EndNs   int64 `json:"end_ns"`
	// Hops counts messages sent within the span; Drops messages lost
	// (transport loss, congestion, dead node, or a checker drop action);
	// Resends proposal retransmissions; Dups checker duplications.
	Hops    int `json:"hops"`
	Drops   int `json:"drops,omitempty"`
	Resends int `json:"resends,omitempty"`
	Dups    int `json:"dups,omitempty"`
	// Events is the span's record stream in recorder arrival order — the
	// span tree's leaves.
	Events []Record `json:"events"`
}

// Span outcomes.
const (
	OutcomeCommitted  = "committed"
	OutcomeAborted    = "aborted"
	OutcomeUnresolved = "unresolved"
)

// Latency returns the end-to-end span duration in ns, or -1 when either
// endpoint is unobserved.
func (sp *Span) Latency() int64 {
	if sp.LockNs < 0 || sp.EndNs < 0 {
		return -1
	}
	return sp.EndNs - sp.LockNs
}

// end advances the span's resolution timestamp (the exchange is only
// fully resolved once both halves have settled, so keep the latest).
func (sp *Span) end(ns int64) {
	if ns > sp.EndNs {
		sp.EndNs = ns
	}
}

// start is the earliest observed timestamp (render ordering).
func (sp *Span) start() int64 {
	if len(sp.Events) == 0 {
		return 0
	}
	t := sp.Events[0].TimeNs
	for _, e := range sp.Events[1:] {
		if e.TimeNs < t {
			t = e.TimeNs
		}
	}
	return t
}

// SpanSet is a stitched dump: the exchange spans plus the records that
// belong to no exchange (crashes, recoveries, stale-epoch noise).
type SpanSet struct {
	Spans []Span   `json:"spans"`
	Loose []Record `json:"loose,omitempty"`
	// Overwritten is carried over from the dump: nonzero means ring
	// wrap-around truncated history and some spans may be partial.
	Overwritten int64 `json:"overwritten,omitempty"`
}

// Stitch reconstructs per-exchange spans from a dump by grouping records
// on the (Init, Seq) causal key and reading the phase structure off each
// group. The result is deterministic for a given dump: spans are ordered
// by observed start time, then initiator, then seq.
func Stitch(d *Dump) *SpanSet {
	set := &SpanSet{Overwritten: d.Overwritten}
	byKey := make(map[[2]uint64]int) // (init, seq) -> index into set.Spans
	for _, rec := range d.Events {
		if rec.Init == NoNode || rec.Seq == 0 {
			set.Loose = append(set.Loose, rec)
			continue
		}
		key := [2]uint64{uint64(uint32(rec.Init)), rec.Seq}
		idx, ok := byKey[key]
		if !ok {
			idx = len(set.Spans)
			byKey[key] = idx
			set.Spans = append(set.Spans, Span{
				Init: int(rec.Init), Seq: rec.Seq, Resp: NoNode, Edge: NoNode,
				LockNs: -1, HoldNs: -1, ApplyNs: -1, EndNs: -1,
			})
		}
		sp := &set.Spans[idx]
		sp.Events = append(sp.Events, rec)
		if rec.Edge != NoNode && sp.Edge == NoNode {
			sp.Edge = int(rec.Edge)
		}
		if sp.Resp == NoNode {
			// The responder is whichever endpoint is not the initiator.
			switch {
			case int(rec.Node) != sp.Init:
				sp.Resp = int(rec.Node)
			case rec.Peer != NoNode && int(rec.Peer) != sp.Init:
				sp.Resp = int(rec.Peer)
			}
		}
		switch rec.Kind {
		case EvInitiate:
			sp.LockNs = rec.TimeNs
		case EvPendHold:
			sp.HoldNs = rec.TimeNs
		case EvApply:
			sp.ApplyNs = rec.TimeNs
			sp.end(rec.TimeNs)
		case EvCommit, EvPendDrop:
			sp.end(rec.TimeNs)
		case EvAbort:
			sp.end(rec.TimeNs)
			if sp.Reason == "" {
				sp.Reason = ReasonName(rec.Flags)
			}
		case EvSend:
			sp.Hops++
		case EvNetDrop:
			sp.Drops++
		case EvResend:
			sp.Resends++
		case EvNetDup:
			sp.Dups++
		}
	}
	for i := range set.Spans {
		sp := &set.Spans[i]
		committed, aborted := false, false
		for _, e := range sp.Events {
			switch e.Kind {
			case EvApply, EvCommit:
				committed = true
			case EvAbort:
				aborted = true
			}
		}
		switch {
		case committed:
			sp.Outcome = OutcomeCommitted
			sp.Reason = ""
		case aborted:
			sp.Outcome = OutcomeAborted
		default:
			sp.Outcome = OutcomeUnresolved
		}
	}
	sort.SliceStable(set.Spans, func(i, j int) bool {
		si, sj := &set.Spans[i], &set.Spans[j]
		if a, b := si.start(), sj.start(); a != b {
			return a < b
		}
		if si.Init != sj.Init {
			return si.Init < sj.Init
		}
		return si.Seq < sj.Seq
	})
	return set
}

// Filter selects spans for the rendering views. NewFilter returns the
// filter that matches everything.
type Filter struct {
	// Node restricts to spans whose initiator or responder is this node
	// (NoNode/negative = any). Use the Init field to match initiators only.
	Node int
	// Init restricts to spans initiated by this node (negative = any).
	Init int
	// Seq restricts to one sequence number (0 = any).
	Seq uint64
	// Outcome restricts to "committed" / "aborted" / "unresolved" ("" = any).
	Outcome string
}

// NewFilter returns the match-everything filter.
func NewFilter() Filter { return Filter{Node: NoNode, Init: NoNode} }

// Match reports whether sp passes the filter.
func (f Filter) Match(sp *Span) bool {
	if f.Node >= 0 && sp.Init != f.Node && sp.Resp != f.Node {
		return false
	}
	if f.Init >= 0 && sp.Init != f.Init {
		return false
	}
	if f.Seq != 0 && sp.Seq != f.Seq {
		return false
	}
	if f.Outcome != "" && sp.Outcome != f.Outcome {
		return false
	}
	return true
}

// Select returns the spans passing f, in set order.
func (set *SpanSet) Select(f Filter) []*Span {
	var out []*Span
	for i := range set.Spans {
		if f.Match(&set.Spans[i]) {
			out = append(out, &set.Spans[i])
		}
	}
	return out
}
