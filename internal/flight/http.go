package flight

import (
	"fmt"
	"net/http"
	"strconv"
)

// Handler serves the recorder's live capture over HTTP (mounted at
// /debug/flightz next to the expvar handler). With no parameters it
// returns the JSON dump; ?view=spans|timeline|phases|aborts|critical
// switches to the text renderings, and ?node=, ?init=, ?seq=, ?outcome=
// filter the spans. ?format=binary returns the binary dump (for piping
// straight into tracez).
func Handler(rc *Recorder) http.Handler { return dumpHandler{rc} }

// dumpHandler is the http.Handler Handler returns.
type dumpHandler struct{ rc *Recorder }

func (h dumpHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := h.rc.Snapshot()
	q := r.URL.Query()
	if q.Get("format") == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
		d.WriteBinary(w)
		return
	}
	view := q.Get("view")
	if view == "" {
		w.Header().Set("Content-Type", "application/json")
		d.WriteJSON(w)
		return
	}
	f := NewFilter()
	if s := q.Get("node"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			f.Node = v
		}
	}
	if s := q.Get("init"); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			f.Init = v
		}
	}
	if s := q.Get("seq"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			f.Seq = v
		}
	}
	f.Outcome = q.Get("outcome")
	set := Stitch(d)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch view {
	case "spans":
		RenderSpans(w, set, f)
	case "timeline":
		RenderTimeline(w, set, f)
	case "phases":
		RenderPhases(w, set, f)
	case "aborts":
		RenderAborts(w, set, f)
	case "critical":
		RenderCritical(w, set, f)
	default:
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, "unknown view %q (want spans|timeline|phases|aborts|critical)\n", view)
	}
}
