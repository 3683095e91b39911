package flight

import (
	"bytes"
	"encoding/binary"
	"io"
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

func TestDumpRoundTripBothEncodings(t *testing.T) {
	d := fullDump()
	for _, enc := range []struct {
		name  string
		write func(*Dump, *bytes.Buffer) error
	}{
		{"json", func(d *Dump, b *bytes.Buffer) error { return d.WriteJSON(b) }},
		{"binary", func(d *Dump, b *bytes.Buffer) error { return d.WriteBinary(b) }},
	} {
		var buf bytes.Buffer
		if err := enc.write(d, &buf); err != nil {
			t.Fatalf("%s encode: %v", enc.name, err)
		}
		got, err := ReadDump(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s decode: %v", enc.name, err)
		}
		if got.Version != d.Version || got.Nodes != d.Nodes || got.RingCap != d.RingCap || got.Overwritten != d.Overwritten {
			t.Errorf("%s header round-trip mismatch: got %+v", enc.name, got)
		}
		if len(got.Events) != len(d.Events) {
			t.Fatalf("%s round-trip: %d events, want %d", enc.name, len(got.Events), len(d.Events))
		}
		for i := range d.Events {
			want := d.Events[i]
			want.gseq = 0 // gseq is not serialized
			if got.Events[i] != want {
				t.Errorf("%s round-trip event %d:\n got %+v\nwant %+v", enc.name, i, got.Events[i], want)
			}
		}
		// Re-encoding the decoded dump must reproduce the exact bytes: the
		// encodings are deterministic functions of the content.
		var buf2 bytes.Buffer
		if err := enc.write(got, &buf2); err != nil {
			t.Fatalf("%s re-encode: %v", enc.name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Errorf("%s encoding is not byte-deterministic across decode∘encode", enc.name)
		}
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
	a.Reset()
	b.Reset()
	if err := d.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two binary encodings of the same dump differ")
	}
}

func TestReadDumpRejectsBadVersion(t *testing.T) {
	d := fullDump()
	d.Version = DumpVersion + 1
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
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

func TestReadDumpRejectsCorruptCount(t *testing.T) {
	var buf bytes.Buffer
	d := &Dump{Version: DumpVersion}
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Overwrite the record count with an absurd value.
	for i := 0; i < 8; i++ {
		raw[4+20+i] = 0xff
	}
	if _, err := ReadDump(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt record count not rejected")
	}
}

// TestReadDumpHugeCountFailsCleanly feeds a bare 32-byte header that
// claims the largest accepted record count and carries no records: the
// decoder must report the missing first record, not reserve memory for
// all of them.
func TestReadDumpHugeCountFailsCleanly(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Dump{Version: DumpVersion}).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint64(raw[4+20:], 1<<28)
	_, err := ReadDump(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "reading record 0 of 268435456") {
		t.Errorf("ReadDump on a %d-byte header claiming 2^28 records: %v", len(raw), err)
	}
}

// FuzzReadDump feeds arbitrary bytes to the dump decoder and to everything
// downstream of it (cmd/tracez's path): an input either fails to decode
// with an error, or decodes, stitches and renders in every view. A decoded
// binary dump re-encodes to the input bytes, except for each record's
// padding and anything after the last record, which the decoder ignores.
func FuzzReadDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		set := Stitch(d)
		for _, render := range []func(io.Writer, *SpanSet, Filter){
			RenderSpans, RenderTimeline, RenderPhases, RenderAborts, RenderCritical,
		} {
			render(io.Discard, set, NewFilter())
		}
		if !bytes.HasPrefix(data, binaryMagic[:]) {
			return
		}
		var enc bytes.Buffer
		if err := d.WriteBinary(&enc); err != nil {
			t.Fatal(err)
		}
		want := bytes.Clone(data[:enc.Len()])
		for off := 4 + 28; off < len(want); off += recordSize {
			clear(want[off+44 : off+recordSize])
		}
		if !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("binary decode∘encode changed the dump:\n got %x\nwant %x", enc.Bytes(), want)
		}
	})
}

func TestWriteFilePicksEncodingBySuffix(t *testing.T) {
	d := fullDump()
	dir := t.TempDir()
	jsonPath := dir + "/d.json"
	binPath := dir + "/d.scfr"
	if err := d.WriteFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFile(binPath); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, binPath} {
		got, err := ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(got.Events) != len(d.Events) {
			t.Errorf("%s: %d events, want %d", p, len(got.Events), len(d.Events))
		}
	}
}
