package flight

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// Handler serves the recorder's live capture over HTTP (mounted at
// /debug/flightz next to the expvar handler). With no parameters it
// returns the JSON dump; ?view=spans|timeline|phases|aborts|critical
// switches to the text renderings, and ?node=, ?init=, ?seq=, ?outcome=
// filter the spans. An unknown view or outcome, or a filter value that
// does not parse, is a 400.
func Handler(rc *Recorder) http.Handler { return dumpHandler{rc} }

// dumpHandler is the http.Handler Handler returns.
type dumpHandler struct{ rc *Recorder }

func (h dumpHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := h.rc.Snapshot()
	q := r.URL.Query()
	view := q.Get("view")
	if view == "" {
		w.Header().Set("Content-Type", "application/json")
		d.WriteJSON(w)
		return
	}
	f, err := parseFilter(q)
	if err == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = Render(w, Stitch(d), view, f)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// parseFilter reads the span filter from the ?node=, ?init=, ?seq= and
// ?outcome= parameters; an absent parameter matches everything.
func parseFilter(q url.Values) (Filter, error) {
	f := NewFilter()
	f.Outcome = q.Get("outcome")
	for _, p := range []struct {
		name string
		dst  *int
	}{{"node", &f.Node}, {"init", &f.Init}} {
		if s := q.Get(p.name); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return f, fmt.Errorf("bad %s %q: want an integer", p.name, s)
			}
			*p.dst = v
		}
	}
	if s := q.Get("seq"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return f, fmt.Errorf("bad seq %q: want a non-negative integer", s)
		}
		f.Seq = v
	}
	return f, nil
}
