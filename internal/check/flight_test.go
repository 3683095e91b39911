package check

import (
	"bytes"
	"hash/fnv"
	"testing"

	"sparsecut/internal/dist"
	"sparsecut/internal/flight"
)

// mutationTrace produces a counterexample by exhausting a seeded bug.
func mutationTrace(t *testing.T) *Trace {
	t.Helper()
	opt := faultOptions(10)
	opt.Mutation = dist.MutLaxWatermarkDedup
	res, err := Exhaustive(triangleSpec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("seeded mutation produced no counterexample")
	}
	return res.Counterexample
}

// TestReplayFlightMatchesReplay is the inertness proof at the checker
// level: attaching a recorder to a replay must not change its outcome —
// same violation, same step — because the emitter only observes the
// machine, never feeds it.
func TestReplayFlightMatchesReplay(t *testing.T) {
	tr := mutationTrace(t)
	plain, err := Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(tr.Graph.Nodes, 0)
	flighted, err := ReplayFlight(tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Same(flighted) {
		t.Fatalf("recorder changed the replay outcome:\n plain: %+v\nflight: %+v", plain, flighted)
	}
	if len(rec.Snapshot().Events) == 0 {
		t.Fatal("replay recorded no flight events")
	}
}

// TestReplayFlightDeterministic pins the byte-determinism acceptance
// criterion: two flight-instrumented replays of the same trace encode to
// byte-identical JSON dumps (virtual ticks, single-threaded world —
// nothing scheduling-dependent leaks in), and the dump decodes and
// re-encodes to the same bytes. The dump's FNV-64a digest is pinned too,
// so a change to the step-to-record mapping shows even when it is
// deterministic.
func TestReplayFlightDeterministic(t *testing.T) {
	tr := mutationTrace(t)
	encode := func(d *flight.Dump) []byte {
		var b bytes.Buffer
		if err := d.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	replay := func() []byte {
		rec := flight.New(tr.Graph.Nodes, 0)
		if _, err := ReplayFlight(tr, rec); err != nil {
			t.Fatal(err)
		}
		return encode(rec.Snapshot())
	}
	j1, j2 := replay(), replay()
	if !bytes.Equal(j1, j2) {
		t.Error("two replay dumps differ")
	}
	d, err := flight.ReadDump(bytes.NewReader(j1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(d), j1) {
		t.Error("decoding and re-encoding the replay dump changed its bytes")
	}
	const wantDigest = uint64(0x91de81046488aa18)
	h := fnv.New64a()
	h.Write(j1)
	if got := h.Sum64(); got != wantDigest {
		t.Errorf("dump digest %#016x (%d bytes), want %#016x", got, len(j1), wantDigest)
	}
}

// TestReplayFlightSpans stitches a counterexample capture and checks the
// span structure carries the protocol phases a human debugger needs: the
// lax-watermark-dedup bug's stale commit appears as a committed span for
// an exchange whose sibling attempt was aborted.
func TestReplayFlightSpans(t *testing.T) {
	tr := mutationTrace(t)
	rec := flight.New(tr.Graph.Nodes, 0)
	v, err := ReplayFlight(tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("violation did not reproduce")
	}
	set := flight.Stitch(rec.Snapshot())
	if len(set.Spans) == 0 {
		t.Fatal("no spans stitched from the counterexample")
	}
	// Every span's events agree on the causal key, and phase timestamps
	// are monotone where observed.
	for i := range set.Spans {
		sp := &set.Spans[i]
		for _, e := range sp.Events {
			if int(e.Init) != sp.Init || e.Seq != sp.Seq {
				t.Errorf("span %d#%d holds foreign record %+v", sp.Init, sp.Seq, e)
			}
		}
		if sp.HoldNs >= 0 && sp.LockNs >= 0 && sp.HoldNs < sp.LockNs {
			t.Errorf("span %d#%d holds before locking: lock=%d hold=%d", sp.Init, sp.Seq, sp.LockNs, sp.HoldNs)
		}
		if sp.ApplyNs >= 0 && sp.HoldNs >= 0 && sp.ApplyNs < sp.HoldNs {
			t.Errorf("span %d#%d applies before holding: hold=%d apply=%d", sp.Init, sp.Seq, sp.HoldNs, sp.ApplyNs)
		}
	}
	// The checker's virtual clock ticks once per action, so every record's
	// timestamp is bounded by the schedule length (times the tick size).
	for _, e := range rec.Snapshot().Events {
		if e.TimeNs < 0 || e.TimeNs > int64(len(tr.Actions)+1)*1000 {
			t.Errorf("record timestamp %d outside the virtual clock range", e.TimeNs)
		}
	}
}

// TestExplorationUnpolluted guards the DFS hot path: a world explored
// without a recorder must never allocate flight state, and clones made
// for invariant quiescence drains must not inherit the recorder (their
// speculative steps would pollute the capture).
func TestExplorationUnpolluted(t *testing.T) {
	w, err := newWorld(triangleSpec(), faultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	if w.rec != nil {
		t.Fatal("fresh world has a recorder")
	}
	rec := flight.New(3, 0)
	w.rec = rec
	cp := w.clone()
	if cp.rec != nil {
		t.Fatal("clone inherited the recorder; quiescence drains would record phantom events")
	}
}
