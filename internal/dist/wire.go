package dist

import (
	"encoding/binary"
	"errors"
	"io"
	"math"

	"sparsecut/internal/graph"
)

// wire.go: the compact binary codec for Message on the TCP transport.
//
// A reflection-driven encoding (encoding/gob) spends several times the
// bytes and far more CPU than the protocol needs. The codec instead writes
// one length-prefixed frame per message:
//
//	uvarint  frame length (bytes following the prefix)
//	byte     Kind
//	byte     Re
//	varint   From   (zigzag)
//	varint   To     (zigzag)
//	varint   Via    (zigzag)
//	varint   Edge   (zigzag)
//	uvarint  Epoch
//	uvarint  Seq
//	8 bytes  X      (IEEE 754 bits, little endian)
//
// Typical protocol frames are 15–25 bytes. The codec is structural only:
// it round-trips ANY Message value, including ones the protocol would
// never produce (negative addresses, unknown kinds) — semantic validation
// belongs to Machine.Deliver, and a codec that rejects nothing but
// malformed bytes is the property the fuzzer can pin down.
//
// Every TCP connection opens with the version byte wireVersionBinary; the
// accepting side drops a connection that starts with anything else. See
// tcp.go.

// wireVersionBinary is the first byte of every connection. 'S' is
// printable and outside the plausible first bytes of other streams, so a
// stray dialer that speaks something else fails fast rather than decoding
// garbage.
const wireVersionBinary = 'S'

// maxWireFrame bounds a frame's declared payload length. The largest
// encodable Message is well under 100 bytes; anything bigger is garbage
// and is rejected before any allocation happens.
const maxWireFrame = 128

var (
	errFrameTooBig = errors.New("dist: wire frame exceeds maximum size")
	errFrameShort  = errors.New("dist: wire frame truncated")
	errFrameLong   = errors.New("dist: wire frame has trailing bytes")
)

// appendMessage appends m's frame (length prefix included) to buf and
// returns the extended slice.
func appendMessage(buf []byte, m Message) []byte {
	var body [maxWireFrame]byte
	n := 0
	body[n] = byte(m.Kind)
	n++
	body[n] = byte(m.Re)
	n++
	n += binary.PutVarint(body[n:], int64(m.From))
	n += binary.PutVarint(body[n:], int64(m.To))
	n += binary.PutVarint(body[n:], int64(m.Via))
	n += binary.PutVarint(body[n:], int64(m.Edge))
	n += binary.PutUvarint(body[n:], m.Epoch)
	n += binary.PutUvarint(body[n:], m.Seq)
	binary.LittleEndian.PutUint64(body[n:], math.Float64bits(m.X))
	n += 8
	buf = binary.AppendUvarint(buf, uint64(n))
	return append(buf, body[:n]...)
}

// decodeFrame decodes one frame body (the bytes after the length prefix).
// Every byte must be consumed: truncated or over-long bodies are rejected.
func decodeFrame(body []byte) (Message, error) {
	var m Message
	if len(body) < 2 {
		return m, errFrameShort
	}
	m.Kind = MsgKind(body[0])
	m.Re = MsgKind(body[1])
	p := body[2:]
	readVarint := func() (int64, error) {
		v, n := binary.Varint(p)
		if n <= 0 {
			return 0, errFrameShort
		}
		p = p[n:]
		return v, nil
	}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errFrameShort
		}
		p = p[n:]
		return v, nil
	}
	from, err := readVarint()
	if err != nil {
		return m, err
	}
	to, err := readVarint()
	if err != nil {
		return m, err
	}
	via, err := readVarint()
	if err != nil {
		return m, err
	}
	edge, err := readVarint()
	if err != nil {
		return m, err
	}
	if m.Epoch, err = readUvarint(); err != nil {
		return m, err
	}
	if m.Seq, err = readUvarint(); err != nil {
		return m, err
	}
	if len(p) < 8 {
		return m, errFrameShort
	}
	m.X = math.Float64frombits(binary.LittleEndian.Uint64(p))
	p = p[8:]
	if len(p) != 0 {
		return m, errFrameLong
	}
	m.From = int(from)
	m.To = int(to)
	m.Via = int(via)
	m.Edge = graph.EdgeID(edge)
	// int shrinks on 32-bit platforms and Edge always shrinks; reject
	// frames whose values do not survive the narrowing instead of
	// silently aliasing them.
	if int64(m.From) != from || int64(m.To) != to || int64(m.Via) != via || int64(m.Edge) != edge {
		return m, errors.New("dist: wire frame field overflows platform int")
	}
	return m, nil
}

// decodeMessage decodes the first complete frame in buf, returning the
// message and the total bytes consumed (prefix + body).
func decodeMessage(buf []byte) (Message, int, error) {
	size, n := binary.Uvarint(buf)
	if n <= 0 {
		return Message{}, 0, errFrameShort
	}
	if size > maxWireFrame {
		return Message{}, 0, errFrameTooBig
	}
	if uint64(len(buf)-n) < size {
		return Message{}, 0, errFrameShort
	}
	m, err := decodeFrame(buf[n : n+int(size)])
	if err != nil {
		return Message{}, 0, err
	}
	return m, n + int(size), nil
}

// wireReader decodes a stream of frames from r (the per-connection reader
// loop on the accepting side of a TCP transport).
type wireReader struct {
	r   io.Reader
	buf [maxWireFrame]byte
	one [1]byte
}

func newWireReader(r io.Reader) *wireReader { return &wireReader{r: r} }

// readMessage reads exactly one frame. io.EOF on a clean frame boundary is
// returned as-is; a stream that ends mid-frame yields ErrUnexpectedEOF.
func (w *wireReader) readMessage() (Message, error) {
	size, err := w.readUvarint(true)
	if err != nil {
		return Message{}, err
	}
	if size > maxWireFrame {
		return Message{}, errFrameTooBig
	}
	body := w.buf[:size]
	if _, err := io.ReadFull(w.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	return decodeFrame(body)
}

// readUvarint reads a varint byte-by-byte so that no bytes of the next
// frame are buffered past it. atBoundary makes EOF on the FIRST byte clean.
func (w *wireReader) readUvarint(atBoundary bool) (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		if _, err := io.ReadFull(w.r, w.one[:]); err != nil {
			if err == io.EOF && !(atBoundary && shift == 0) {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		b := w.one[0]
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
	}
	return 0, errors.New("dist: wire length prefix overflows uvarint")
}
