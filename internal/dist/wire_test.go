package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sparsecut/internal/graph"
)

var wireSamples = []Message{
	{},
	{Kind: MsgLock, From: 0, To: 1, Epoch: 1, Seq: 1, Edge: 0, X: 1},
	{Kind: MsgPropose, Re: MsgLock, From: 7, To: 3, Epoch: 2, Seq: 19, Edge: 11, X: -0.4375},
	{Kind: MsgNack, Re: MsgPropose, From: 3, To: 7, Epoch: 2, Seq: 19, Edge: 11},
	{Kind: MsgCommit, Re: MsgPropose, From: 999999, To: 1000000, Via: 64, Epoch: 12, Seq: 1 << 40, Edge: 1<<31 - 1, X: math.Pi},
	// Values the protocol never produces must still round-trip: the codec
	// is structural, not semantic.
	{Kind: 200, Re: 255, From: -5, To: -9, Via: -1, Edge: -2, X: math.Inf(-1)},
	{From: math.MaxInt64, To: math.MinInt64, Epoch: math.MaxUint64, Seq: math.MaxUint64, X: math.MaxFloat64},
	{X: smallestDenormal()},
}

func smallestDenormal() float64 { return math.Float64frombits(1) }

// sameMessage compares messages with NaN-tolerant X equality.
func sameMessage(a, b Message) bool {
	if a.X != b.X && !(math.IsNaN(a.X) && math.IsNaN(b.X)) {
		return false
	}
	a.X, b.X = 0, 0
	return a == b
}

func TestWireRoundTrip(t *testing.T) {
	for i, m := range wireSamples {
		frame := appendMessage(nil, m)
		got, n, err := decodeMessage(frame)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("sample %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if !sameMessage(got, m) {
			t.Fatalf("sample %d: round trip %+v != %+v", i, got, m)
		}
	}
}

func TestWireCompactness(t *testing.T) {
	m := Message{Kind: MsgPropose, Re: MsgLock, From: 512, To: 513, Epoch: 3, Seq: 1000, Edge: 2048, X: 0.5}
	frame := appendMessage(nil, m)
	if len(frame) > 32 {
		t.Fatalf("typical frame is %d bytes, want at most 32", len(frame))
	}
}

// TestWireTruncation: every strict prefix of a valid frame must be
// rejected, never mis-decoded.
func TestWireTruncation(t *testing.T) {
	for i, m := range wireSamples {
		frame := appendMessage(nil, m)
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := decodeMessage(frame[:cut]); err == nil {
				t.Fatalf("sample %d: decode succeeded on %d/%d-byte prefix", i, cut, len(frame))
			}
		}
	}
}

// TestWireTrailingBytes: a frame whose declared length exceeds its real
// content (padding inside the frame) is rejected — the field decoders must
// consume the body exactly.
func TestWireTrailingBytes(t *testing.T) {
	frame := appendMessage(nil, wireSamples[2])
	// Rewrite the length prefix to claim two extra bytes and supply them.
	body := frame[1:] // samples are tiny: 1-byte uvarint prefix
	padded := binary.AppendUvarint(nil, uint64(len(body)+2))
	padded = append(padded, body...)
	padded = append(padded, 0, 0)
	if _, _, err := decodeMessage(padded); err == nil {
		t.Fatal("decode accepted a frame with trailing padding")
	}
}

func TestWireOversizeFrameRejected(t *testing.T) {
	buf := binary.AppendUvarint(nil, maxWireFrame+1)
	buf = append(buf, make([]byte, maxWireFrame+1)...)
	if _, _, err := decodeMessage(buf); err != errFrameTooBig {
		t.Fatalf("oversize frame: got %v, want errFrameTooBig", err)
	}

	r := newWireReader(bytes.NewReader(buf))
	if _, err := r.readMessage(); err != errFrameTooBig {
		t.Fatalf("oversize frame (stream): got %v, want errFrameTooBig", err)
	}
}

// TestWireReaderStream: a stream of back-to-back frames decodes in order,
// ends with a clean io.EOF on a frame boundary, and a mid-frame cut yields
// ErrUnexpectedEOF.
func TestWireReaderStream(t *testing.T) {
	var stream []byte
	for _, m := range wireSamples {
		stream = appendMessage(stream, m)
	}

	r := newWireReader(bytes.NewReader(stream))
	for i, want := range wireSamples {
		got, err := r.readMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !sameMessage(got, want) {
			t.Fatalf("message %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := r.readMessage(); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}

	r = newWireReader(bytes.NewReader(stream[:len(stream)-3]))
	var err error
	for err == nil {
		_, err = r.readMessage()
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("mid-frame cut: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// wireCorpusSeeds are the committed fuzz seeds (testdata/fuzz/FuzzWireCodec)
// and the in-process f.Add seeds — one list so they cannot drift.
func wireCorpusSeeds() [][]byte {
	var seeds [][]byte
	for _, m := range wireSamples {
		seeds = append(seeds, appendMessage(nil, m))
	}
	return append(seeds,
		[]byte{},
		[]byte{0x00},
		// 10-byte maximal uvarint length prefix with no body.
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		// Maximum-length all-zero body: decodes, re-encodes shorter.
		append(binary.AppendUvarint(nil, 70), make([]byte, 70)...),
	)
}

// TestRegenWireCorpus rewrites the committed seed corpus. It is skipped
// unless REGEN_WIRE_CORPUS=1 — run it after changing the frame format.
func TestRegenWireCorpus(t *testing.T) {
	if os.Getenv("REGEN_WIRE_CORPUS") == "" {
		t.Skip("set REGEN_WIRE_CORPUS=1 to rewrite testdata/fuzz/FuzzWireCodec")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range wireCorpusSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWireCodec fuzzes the binary codec from raw bytes, exercising both
// directions:
//
//  1. Decode-of-garbage: decodeMessage on arbitrary input must either fail
//     or yield a message that re-encodes to a decodable canonical frame
//     (one round of re-encoding is a fixed point — non-minimal varints are
//     the only way a foreign encoder can differ from ours).
//  2. Encode-decode identity: a Message built from the fuzzed bytes must
//     round-trip exactly, including through the streaming reader, and the
//     stream must reject every truncation of the frame.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireCorpusSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes in.
		if m, n, err := decodeMessage(data); err == nil {
			if n > len(data) {
				t.Fatalf("decode claims %d bytes of a %d-byte input", n, len(data))
			}
			re := appendMessage(nil, m)
			m2, n2, err := decodeMessage(re)
			if err != nil {
				t.Fatalf("re-encode of decoded message failed to decode: %v", err)
			}
			if n2 != len(re) || !sameMessage(m, m2) {
				t.Fatalf("re-encode not a fixed point: %+v != %+v", m2, m)
			}
		}

		// Direction 2: a message synthesized from the bytes out.
		var pad [64]byte
		b := append(data, pad[:]...)
		m := Message{
			Kind:  MsgKind(b[0]),
			Re:    MsgKind(b[1]),
			From:  int(int64(binary.LittleEndian.Uint64(b[2:]))),
			To:    int(int64(binary.LittleEndian.Uint64(b[10:]))),
			Via:   int(int64(binary.LittleEndian.Uint64(b[18:]))),
			Epoch: binary.LittleEndian.Uint64(b[26:]),
			Seq:   binary.LittleEndian.Uint64(b[34:]),
			Edge:  graph.EdgeID(binary.LittleEndian.Uint32(b[42:])),
			X:     math.Float64frombits(binary.LittleEndian.Uint64(b[46:])),
		}
		frame := appendMessage(nil, m)
		got, n, err := decodeMessage(frame)
		if err != nil {
			t.Fatalf("round trip decode: %v (message %+v)", err, m)
		}
		if n != len(frame) || !sameMessage(got, m) {
			t.Fatalf("round trip: %+v != %+v (consumed %d/%d)", got, m, n, len(frame))
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := decodeMessage(frame[:cut]); err == nil {
				t.Fatalf("decode succeeded on %d/%d-byte truncation", cut, len(frame))
			}
		}
		sr := newWireReader(bytes.NewReader(frame))
		got2, err := sr.readMessage()
		if err != nil || !sameMessage(got2, m) {
			t.Fatalf("stream round trip: %+v, %v", got2, err)
		}
	})
}
