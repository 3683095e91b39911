package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// The rendering views. All of them write deterministic plain text for a
// given span set and filter (no map iteration, stable sorts), so piping
// tracez output through a byte-diff is a valid regression check.

// Render writes the named view of set — spans, timeline, phases, aborts or
// critical — restricted to f. It fails before writing anything when the
// view or f's outcome is unknown, so a typo is an error rather than an
// empty rendering. cmd/tracez renders through it.
func Render(w io.Writer, set *SpanSet, view string, f Filter) error {
	switch f.Outcome {
	case "", OutcomeCommitted, OutcomeAborted, OutcomeUnresolved:
	default:
		return fmt.Errorf("unknown outcome %q (want committed|aborted|unresolved)", f.Outcome)
	}
	var render func(io.Writer, *SpanSet, Filter)
	switch view {
	case "spans":
		render = RenderSpans
	case "timeline":
		render = RenderTimeline
	case "phases":
		render = RenderPhases
	case "aborts":
		render = RenderAborts
	case "critical":
		render = RenderCritical
	default:
		return fmt.Errorf("unknown view %q (want spans|timeline|phases|aborts|critical)", view)
	}
	render(w, set, f)
	return nil
}

func fmtDur(ns int64) string {
	if ns < 0 {
		return "?"
	}
	return time.Duration(ns).String()
}

// fmtAt renders an absolute timestamp relative to base.
func fmtAt(ns, base int64) string {
	if ns < 0 {
		return "?"
	}
	return "+" + time.Duration(ns-base).String()
}

func (sp *Span) label() string {
	resp := "?"
	if sp.Resp != NoNode {
		resp = fmt.Sprintf("%d", sp.Resp)
	}
	edge := ""
	if sp.Edge != NoNode {
		edge = fmt.Sprintf(" edge %d", sp.Edge)
	}
	return fmt.Sprintf("exchange %d#%d -> %s%s", sp.Init, sp.Seq, resp, edge)
}

func (sp *Span) outcomeLabel() string {
	if sp.Reason != "" {
		return sp.Outcome + "/" + sp.Reason
	}
	return sp.Outcome
}

// RenderSpans writes the one-line-per-span summary view.
func RenderSpans(w io.Writer, set *SpanSet, f Filter) {
	spans := set.Select(f)
	committed, aborted := 0, 0
	for _, sp := range spans {
		switch sp.Outcome {
		case OutcomeCommitted:
			committed++
		case OutcomeAborted:
			aborted++
		}
	}
	fmt.Fprintf(w, "spans: %d (%d committed, %d aborted, %d unresolved)",
		len(spans), committed, aborted, len(spans)-committed-aborted)
	if set.Overwritten > 0 {
		fmt.Fprintf(w, "  [ring overwrote %d records; oldest spans may be partial]", set.Overwritten)
	}
	fmt.Fprintln(w)
	for _, sp := range spans {
		fmt.Fprintf(w, "  %-28s %-18s lat=%-10s hops=%d", sp.label(), sp.outcomeLabel(), fmtDur(sp.Latency()), sp.Hops)
		if sp.Drops > 0 {
			fmt.Fprintf(w, " drops=%d", sp.Drops)
		}
		if sp.Resends > 0 {
			fmt.Fprintf(w, " resends=%d", sp.Resends)
		}
		if sp.Dups > 0 {
			fmt.Fprintf(w, " dups=%d", sp.Dups)
		}
		fmt.Fprintln(w)
	}
}

// describeRecord renders one record as a timeline leaf.
func describeRecord(e Record) string {
	switch e.Kind {
	case EvSend, EvRecv, EvNetDrop, EvNetDup:
		dir := fmt.Sprintf("%s %d->%d seq=%d", MsgName(e.Msg), e.Node, e.Peer, e.Seq)
		if e.Kind == EvRecv || (e.Kind == EvNetDrop && e.Flags == ReasonDead) {
			dir = fmt.Sprintf("%s %d->%d seq=%d", MsgName(e.Msg), e.Peer, e.Node, e.Seq)
		}
		s := fmt.Sprintf("%-8s %s", e.Kind, dir)
		if e.Msg == MsgNack {
			s += fmt.Sprintf(" re=%s", MsgName(e.Re))
		}
		if e.Kind == EvNetDrop {
			s += fmt.Sprintf(" (%s)", ReasonName(e.Flags))
		}
		return s
	case EvInitiate:
		return fmt.Sprintf("%-8s node %d locks toward %d (x=%g)", e.Kind, e.Node, e.Peer, e.X)
	case EvPendHold:
		return fmt.Sprintf("%-8s node %d holds proposal (delta=%g)", e.Kind, e.Node, e.X)
	case EvApply:
		return fmt.Sprintf("%-8s node %d applies %+g", e.Kind, e.Node, e.X)
	case EvCommit:
		return fmt.Sprintf("%-8s node %d applies %+g, exchange committed", e.Kind, e.Node, -e.X)
	case EvAbort:
		return fmt.Sprintf("%-8s node %d abandons its initiation (%s)", e.Kind, e.Node, ReasonName(e.Flags))
	case EvPendDrop:
		return fmt.Sprintf("%-8s node %d rolls the proposal back", e.Kind, e.Node)
	case EvTimeout, EvResend, EvCrash, EvRecover:
		return fmt.Sprintf("%-8s node %d", e.Kind, e.Node)
	default:
		return fmt.Sprintf("%-8s node %d", e.Kind, e.Node)
	}
}

// RenderTimeline writes the span-tree view: one tree per span, each record
// a leaf stamped with its offset from the span's first event.
func RenderTimeline(w io.Writer, set *SpanSet, f Filter) {
	spans := set.Select(f)
	for _, sp := range spans {
		base := sp.start()
		fmt.Fprintf(w, "%s  [%s]  lat=%s\n", sp.label(), sp.outcomeLabel(), fmtDur(sp.Latency()))
		for i, e := range sp.Events {
			branch := "├─"
			if i == len(sp.Events)-1 {
				branch = "└─"
			}
			fmt.Fprintf(w, "  %s %-10s %s\n", branch, fmtAt(e.TimeNs, base), describeRecord(e))
		}
	}
	if len(set.Loose) > 0 {
		fmt.Fprintf(w, "outside any exchange: %d records\n", len(set.Loose))
		base := set.Loose[0].TimeNs
		for i, e := range set.Loose {
			branch := "├─"
			if i == len(set.Loose)-1 {
				branch = "└─"
			}
			fmt.Fprintf(w, "  %s %-10s %s\n", branch, fmtAt(e.TimeNs, base), describeRecord(e))
		}
	}
}

// quantile returns the exact q-quantile of sorted (nearest-rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return -1
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func phaseRow(w io.Writer, name string, samples []int64) {
	if len(samples) == 0 {
		fmt.Fprintf(w, "  %-16s %6d\n", name, 0)
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum int64
	for _, v := range samples {
		sum += v
	}
	fmt.Fprintf(w, "  %-16s %6d  mean=%-10s p50=%-10s p95=%-10s p99=%-10s max=%s\n",
		name, len(samples),
		fmtDur(sum/int64(len(samples))),
		fmtDur(quantile(samples, 0.50)), fmtDur(quantile(samples, 0.95)),
		fmtDur(quantile(samples, 0.99)), fmtDur(samples[len(samples)-1]))
}

// RenderPhases writes the per-phase latency breakdown over the selected
// spans: where LOCK→COMMIT time goes, leg by leg, with exact quantiles
// computed from the span timestamps.
func RenderPhases(w io.Writer, set *SpanSet, f Filter) {
	spans := set.Select(f)
	var lockHold, holdApply, applyEnd, total []int64
	for _, sp := range spans {
		if sp.LockNs >= 0 && sp.HoldNs >= 0 {
			lockHold = append(lockHold, sp.HoldNs-sp.LockNs)
		}
		if sp.HoldNs >= 0 && sp.ApplyNs >= 0 {
			holdApply = append(holdApply, sp.ApplyNs-sp.HoldNs)
		}
		if sp.ApplyNs >= 0 && sp.EndNs >= 0 {
			applyEnd = append(applyEnd, sp.EndNs-sp.ApplyNs)
		}
		if l := sp.Latency(); l >= 0 && sp.Outcome == OutcomeCommitted {
			total = append(total, l)
		}
	}
	fmt.Fprintf(w, "phase latency over %d spans (committed end-to-end: %d)\n", len(spans), len(total))
	phaseRow(w, "lock->hold", lockHold)
	phaseRow(w, "hold->apply", holdApply)
	phaseRow(w, "apply->resolve", applyEnd)
	phaseRow(w, "lock->resolve", total)
}

// RenderAborts writes the top-aborts view: abort counts by reason, then by
// (initiator, responder) pair, most frequent first.
func RenderAborts(w io.Writer, set *SpanSet, f Filter) {
	spans := set.Select(f)
	byReason := make(map[string]int)
	byPair := make(map[[2]int]int)
	aborts := 0
	for _, sp := range spans {
		if sp.Outcome != OutcomeAborted {
			continue
		}
		aborts++
		reason := sp.Reason
		if reason == "" {
			reason = "unknown"
		}
		byReason[reason]++
		byPair[[2]int{sp.Init, sp.Resp}]++
	}
	fmt.Fprintf(w, "aborts: %d of %d spans\n", aborts, len(spans))
	reasons := make([]string, 0, len(byReason))
	for r := range byReason {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if byReason[reasons[i]] != byReason[reasons[j]] {
			return byReason[reasons[i]] > byReason[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	for _, r := range reasons {
		fmt.Fprintf(w, "  %-12s %d\n", r, byReason[r])
	}
	pairs := make([][2]int, 0, len(byPair))
	for p := range byPair {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if byPair[pairs[i]] != byPair[pairs[j]] {
			return byPair[pairs[i]] > byPair[pairs[j]]
		}
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	if len(pairs) > 8 {
		pairs = pairs[:8]
	}
	for _, p := range pairs {
		fmt.Fprintf(w, "  pair %d->%d: %d\n", p[0], p[1], byPair[p])
	}
}

// RenderCritical writes the critical-path view: the slowest committed span
// under the filter, broken into its inter-event segments, longest first —
// where that exchange's latency actually went.
func RenderCritical(w io.Writer, set *SpanSet, f Filter) {
	spans := set.Select(f)
	var worst *Span
	for _, sp := range spans {
		if sp.Outcome != OutcomeCommitted || sp.Latency() < 0 {
			continue
		}
		if worst == nil || sp.Latency() > worst.Latency() {
			worst = sp
		}
	}
	if worst == nil {
		fmt.Fprintln(w, "critical path: no committed span with a full latency observation")
		return
	}
	fmt.Fprintf(w, "critical path: slowest committed span %s  lat=%s\n", worst.label(), fmtDur(worst.Latency()))
	type seg struct {
		dur      int64
		from, to string
	}
	evs := append([]Record(nil), worst.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TimeNs < evs[j].TimeNs })
	var segs []seg
	for i := 1; i < len(evs); i++ {
		if d := evs[i].TimeNs - evs[i-1].TimeNs; d > 0 {
			segs = append(segs, seg{d, describeRecord(evs[i-1]), describeRecord(evs[i])})
		}
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].dur > segs[j].dur })
	for _, s := range segs {
		fmt.Fprintf(w, "  %-10s %s  ==>  %s\n", fmtDur(s.dur), s.from, s.to)
	}
}
