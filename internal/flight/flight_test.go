package flight

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// rec builds a minimal record for ring/dump tests.
func rec(node int, t int64, kind EventKind) Record {
	return Record{TimeNs: t, Node: int32(node), Init: NoNode, Peer: NoNode, Edge: NoNode, Kind: kind}
}

func TestNilRecorderIsInert(t *testing.T) {
	var rc *Recorder
	rc.Record(rec(0, 1, EvSend)) // must not panic
	if rc.Nodes() != 0 {
		t.Errorf("nil recorder has %d nodes, want 0", rc.Nodes())
	}
	d := rc.Snapshot()
	if len(d.Events) != 0 || d.Overwritten != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", d)
	}
	if d.Version != DumpVersion {
		t.Errorf("nil snapshot version %d, want %d", d.Version, DumpVersion)
	}
}

func TestRingWrapCountsOverwritten(t *testing.T) {
	const ringCap, writes = 8, 21
	rc := New(1, ringCap)
	for i := 0; i < writes; i++ {
		rc.Record(rec(0, int64(i), EvSend))
	}
	d := rc.Snapshot()
	if len(d.Events) != ringCap {
		t.Fatalf("snapshot holds %d events, want ring capacity %d", len(d.Events), ringCap)
	}
	if d.Overwritten != writes-ringCap {
		t.Errorf("overwritten = %d, want %d", d.Overwritten, writes-ringCap)
	}
	// The survivors are the newest ringCap records, oldest first.
	for i, e := range d.Events {
		if want := int64(writes - ringCap + i); e.TimeNs != want {
			t.Errorf("event %d has t=%d, want %d", i, e.TimeNs, want)
		}
	}
}

// TestRingGrowsOnDemand checks that a ring grows as records arrive, never
// past its capacity, and that every snapshot on the way (through the
// growth steps, the clamped last one and the wrap) holds the newest
// min(writes, capacity) records with the rest counted as overwritten.
func TestRingGrowsOnDemand(t *testing.T) {
	const ringCap = 100 // not a power of two, so the last growth is clamped
	rc := New(1, ringCap)
	r := &rc.rings[0]
	for i := 0; i < 3*ringCap+7; i++ {
		rc.Record(rec(0, int64(i), EvSend))
		if c := cap(r.buf); c > ringCap {
			t.Fatalf("after %d writes the ring holds room for %d records, past its capacity %d", i+1, c, ringCap)
		}
		d := rc.Snapshot()
		kept := min(i+1, ringCap)
		if len(d.Events) != kept || d.Overwritten != int64(i+1-kept) || d.RingCap != ringCap {
			t.Fatalf("after %d writes: %d events, %d overwritten, ring_cap %d; want %d, %d, %d",
				i+1, len(d.Events), d.Overwritten, d.RingCap, kept, i+1-kept, ringCap)
		}
		for j, e := range d.Events {
			if want := int64(i + 1 - kept + j); e.TimeNs != want {
				t.Fatalf("after %d writes event %d has t=%d, want %d", i+1, j, e.TimeNs, want)
			}
		}
	}
}

// TestNewAllocatesOnDemand pins the on-demand rings: a recorder for 100
// nodes at the default capacity that has seen a few records allocates
// kilobytes, not the 22.9 MB its rings would take allocated whole.
func TestNewAllocatesOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rc := New(100, DefaultRingCap)
	for n := 0; n < 4; n++ {
		rc.Record(rec(n, int64(n), EvSend))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(rc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New(100, DefaultRingCap) plus 4 records allocated %d bytes, want under 1 MiB", got)
	}
}

// TestSnapshotAllocatesOnce pins Snapshot's merge to one allocation of
// the event slice: 1,000 rings of three records each must not grow the
// merged copy by repeated appends.
func TestSnapshotAllocatesOnce(t *testing.T) {
	const nodes, perRing = 1000, 3
	rc := New(nodes, 0)
	for n := 0; n < nodes; n++ {
		for i := 0; i < perRing; i++ {
			rc.Record(rec(n, int64(i), EvSend))
		}
	}
	var d *Dump
	allocs := testing.AllocsPerRun(10, func() { d = rc.Snapshot() })
	if len(d.Events) != nodes*perRing {
		t.Fatalf("snapshot holds %d events, want %d", len(d.Events), nodes*perRing)
	}
	// The Dump and its event slice.
	if allocs > 2 {
		t.Errorf("Snapshot made %v allocations, want at most 2", allocs)
	}
}

func TestRecordClampsNodeOutOfRange(t *testing.T) {
	rc := New(2, 4)
	rc.Record(rec(99, 1, EvSend))
	rc.Record(rec(-3, 2, EvSend))
	d := rc.Snapshot()
	if len(d.Events) != 2 {
		t.Fatalf("got %d events, want 2 (out-of-range nodes fold into ring 0)", len(d.Events))
	}
}

func TestSnapshotMergesInArrivalOrder(t *testing.T) {
	rc := New(3, 16)
	// Interleave writers across rings; gseq must restore the global order.
	order := []int{2, 0, 1, 1, 0, 2, 0}
	for i, n := range order {
		rc.Record(rec(n, int64(100+i), EvSend))
	}
	d := rc.Snapshot()
	if len(d.Events) != len(order) {
		t.Fatalf("got %d events, want %d", len(d.Events), len(order))
	}
	for i, e := range d.Events {
		if e.TimeNs != int64(100+i) {
			t.Errorf("merged event %d has t=%d, want %d (arrival order broken)", i, e.TimeNs, 100+i)
		}
		if int(e.Node) != order[i] {
			t.Errorf("merged event %d from node %d, want %d", i, e.Node, order[i])
		}
	}
}

// TestRecorderHammer drives concurrent writers at every ring plus a
// concurrent snapshot reader; under -race this is the recorder's
// thread-safety proof.
func TestRecorderHammer(t *testing.T) {
	const nodes, writers, perWriter = 4, 8, 500
	rc := New(nodes, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rc.Snapshot()
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				rc.Record(rec((w+i)%nodes, int64(i), EvSend))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	d := rc.Snapshot()
	total := int64(len(d.Events)) + d.Overwritten
	if want := int64(writers * perWriter); total != want {
		t.Errorf("live %d + overwritten %d = %d records, want %d", len(d.Events), d.Overwritten, total, want)
	}
}

func fullDump() *Dump {
	rc := New(2, 8)
	rc.Record(Record{TimeNs: 10, Seq: 1, X: -2.5, Init: 0, Node: 0, Peer: 1, Edge: 0, Kind: EvInitiate})
	rc.Record(Record{TimeNs: 10, Seq: 1, X: -2.5, Init: 0, Node: 0, Peer: 1, Edge: 0, Kind: EvSend, Msg: MsgLock})
	rc.Record(Record{TimeNs: 20, Seq: 1, X: -2.5, Init: 0, Node: 1, Peer: 0, Edge: 0, Kind: EvRecv, Msg: MsgLock})
	rc.Record(Record{TimeNs: 25, Seq: 1, Init: 0, Node: 1, Peer: 0, Edge: NoNode, Kind: EvNetDrop, Msg: MsgPropose, Re: MsgLock, Flags: ReasonLoss})
	rc.Record(Record{TimeNs: 40, Seq: 1, Init: 0, Node: 0, Peer: NoNode, Edge: NoNode, Kind: EvAbort, Flags: ReasonTimeout})
	rc.Record(Record{TimeNs: 50, Init: NoNode, Node: 1, Peer: NoNode, Edge: NoNode, Kind: EvCrash})
	return rc.Snapshot()
}

// TestDumpRoundTrip: decode∘encode is the identity, both through
// WriteJSON/ReadDump and through WriteFile/ReadFile, and re-encoding the
// decoded dump reproduces the exact bytes.
func TestDumpRoundTrip(t *testing.T) {
	d := fullDump()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.flight.json"
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, buf.Bytes()) {
		t.Errorf("WriteFile wrote different bytes from WriteJSON (read error %v)", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != d.Version || got.Nodes != d.Nodes || got.RingCap != d.RingCap || got.Overwritten != d.Overwritten {
		t.Errorf("header round-trip mismatch: got %+v", got)
	}
	if len(got.Events) != len(d.Events) {
		t.Fatalf("round-trip: %d events, want %d", len(got.Events), len(d.Events))
	}
	for i := range d.Events {
		want := d.Events[i]
		want.gseq = 0 // gseq is not serialized
		if got.Events[i] != want {
			t.Errorf("round-trip event %d:\n got %+v\nwant %+v", i, got.Events[i], want)
		}
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("JSON encoding is not byte-deterministic across decode∘encode")
	}
}

func TestDumpEncodeTwiceIdentical(t *testing.T) {
	d := fullDump()
	var a, b bytes.Buffer
	if err := d.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two JSON encodings of the same dump differ")
	}
}

func TestReadDumpRejectsBadVersion(t *testing.T) {
	d := fullDump()
	d.Version = DumpVersion + 1
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDump(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("version mismatch not rejected")
	}
}

// TestReadDumpRejectsTrailingJSON: a JSON dump must be the only value in
// its input, up to whitespace.
func TestReadDumpRejectsTrailingJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := fullDump().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDump(bytes.NewReader(append(buf.Bytes(), " \n"...))); err != nil {
		t.Fatalf("dump with trailing whitespace: %v", err)
	}
	for _, tail := range []string{"]]]", " garbage", buf.String()} {
		in := append(bytes.Clone(buf.Bytes()), tail...)
		if _, err := ReadDump(bytes.NewReader(in)); err == nil {
			t.Errorf("dump followed by %.20q: expected error", tail)
		}
	}
}

// TestReadDumpRejectsBinarySeed: the fuzz corpus keeps a dump in the
// retired 48-byte binary framing ("SCFR" magic); the JSON-only decoder
// must reject it with an error.
func TestReadDumpRejectsBinarySeed(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzReadDump/binary-dump")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil || !strings.HasPrefix(data, "SCFR") {
		t.Fatalf("binary seed is not a quoted SCFR dump (unquote: %v)", err)
	}
	if _, err := ReadDump(strings.NewReader(data)); err == nil {
		t.Error("binary dump decoded without error")
	}
}

// FuzzReadDump feeds arbitrary bytes to the dump decoder and to everything
// downstream of it (cmd/tracez's path): an input either fails to decode
// with an error, or decodes, stitches and renders in every view. A decoded
// dump's encoding is a fixed point: encode∘decode∘encode = encode, byte
// for byte.
func FuzzReadDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		set := Stitch(d)
		for _, view := range views {
			if err := Render(io.Discard, set, view, NewFilter()); err != nil {
				t.Fatal(err)
			}
		}
		var enc bytes.Buffer
		if err := d.WriteJSON(&enc); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadDump(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an encoded dump: %v", err)
		}
		var enc2 bytes.Buffer
		if err := d2.WriteJSON(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("encode∘decode∘encode changed the dump:\n got %s\nwant %s", enc2.Bytes(), enc.Bytes())
		}
	})
}

// views lists every view Render accepts.
var views = []string{"spans", "timeline", "phases", "aborts", "critical"}

// TestRenderRejectsUnknownViewOrOutcome checks that Render fails on an
// unknown view or outcome before writing a byte, so a typo is an error
// rather than an empty or widened rendering, and that every known view
// renders.
func TestRenderRejectsUnknownViewOrOutcome(t *testing.T) {
	set := Stitch(fullDump())
	for _, view := range views {
		var buf bytes.Buffer
		if err := Render(&buf, set, view, NewFilter()); err != nil || buf.Len() == 0 {
			t.Errorf("view %s: err %v, %d bytes", view, err, buf.Len())
		}
	}
	commited := NewFilter()
	commited.Outcome = "commited"
	for _, c := range []struct {
		view string
		f    Filter
		want string
	}{
		{"spans", commited, `unknown outcome "commited"`},
		{"nope", NewFilter(), `unknown view "nope"`},
	} {
		var buf bytes.Buffer
		err := Render(&buf, set, c.view, c.f)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("view %q outcome %q: err %v, want %q", c.view, c.f.Outcome, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("view %q outcome %q: wrote %d bytes before failing:\n%s", c.view, c.f.Outcome, buf.Len(), buf.Bytes())
		}
	}
}
