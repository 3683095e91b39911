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

// TestReplayFlightCrashRecords pins the crash path of Machine.Step's flight
// mapping on a handwritten schedule: node 0 locks node 1, node 1 answers
// with a PROPOSE, node 0 crashes, the PROPOSE reaches the down node, and
// node 0 recovers. The dump must hold the crash, the initiation's abort
// for the crash, the dead-node drop and the recovery; the crash and
// recover records fall outside every span, and the span's reason is the
// crash.
func TestReplayFlightCrashRecords(t *testing.T) {
	spec := triangleSpec()
	toOne := -1
	for i, he := range spec.Graph.Neighbors(0) {
		if he.Peer == 1 {
			toOne = i
		}
	}
	tr := &Trace{
		Version: 1,
		Graph:   graphSpecOf(spec.Graph),
		X0:      spec.X0,
		Rule:    spec.Rule,
		Options: Options{Crashes: true},
		Actions: []Action{
			{Op: OpInitiate, Node: 0, Edge: toOne},
			{Op: OpDeliver, Msg: 0}, // the LOCK; node 1 sends its PROPOSE
			{Op: OpCrash, Node: 0},
			{Op: OpDeliver, Msg: 0}, // the PROPOSE, to the down node
			{Op: OpRecover, Node: 0},
		},
	}
	rec := flight.New(tr.Graph.Nodes, 0)
	v, err := ReplayFlight(tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("correct protocol violated an invariant: %+v", v)
	}
	d := rec.Snapshot()
	var crash, abort, dead, recov int
	for _, e := range d.Events {
		switch {
		case e.Kind == flight.EvCrash && e.Node == 0:
			crash++
		case e.Kind == flight.EvAbort && e.Flags == flight.ReasonCrash && e.Init == 0 && e.Seq == 1:
			abort++
		case e.Kind == flight.EvNetDrop && e.Flags == flight.ReasonDead && e.Init == 0 && e.Seq == 1:
			dead++
		case e.Kind == flight.EvRecover && e.Node == 0:
			recov++
		}
	}
	if crash != 1 || abort != 1 || dead != 1 || recov != 1 {
		t.Errorf("dump holds %d crash, %d crash-abort, %d dead-node drop and %d recover records, want one each:\n%+v",
			crash, abort, dead, recov, d.Events)
	}

	set := flight.Stitch(d)
	var sp *flight.Span
	for i := range set.Spans {
		if set.Spans[i].Init == 0 && set.Spans[i].Seq == 1 {
			sp = &set.Spans[i]
		}
	}
	if sp == nil {
		t.Fatalf("no span for (0, seq 1) in %+v", set.Spans)
	}
	if sp.Reason != "crash" {
		t.Errorf("span (0, seq 1) reason %q, want %q", sp.Reason, "crash")
	}
	var looseCrash, looseRecover int
	for _, r := range set.Loose {
		switch r.Kind {
		case flight.EvCrash:
			looseCrash++
		case flight.EvRecover:
			looseRecover++
		}
	}
	if looseCrash != 1 || looseRecover != 1 {
		t.Errorf("Loose holds %d crash and %d recover records, want one each", looseCrash, looseRecover)
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
