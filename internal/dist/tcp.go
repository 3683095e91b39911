package dist

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"sparsecut/internal/flight"
)

// TCPTransport carries protocol messages over loopback TCP: one listener
// per address, length-prefixed binary frames (wire.go) on persistent
// connections. It exists so the runtime can be exercised over a real socket
// stack (examples/cluster -tcp) rather than only over in-process channels;
// it is not a wide-area-network transport.
//
// Each outbound connection opens with a version byte; the accepting side
// drops a connection whose first byte is not wireVersionBinary instead of
// guessing at the stream format.
type TCPTransport struct {
	listeners []net.Listener
	ports     []int
	boxes     []chan Message

	mu       sync.Mutex
	outbound map[int]*tcpConn      // dial-side connections, by destination
	inbound  map[net.Conn]struct{} // accept-side connections, for Close
	closed   bool
	closedC  chan struct{}
	wg       sync.WaitGroup

	congested atomic.Int64
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64
	rec       atomic.Pointer[flight.Recorder]
}

// countWriter and countReader tally wire bytes as the frames move through
// them, so telemetry sees real serialized volume, not Message
// struct sizes.
type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

type countReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	w   io.Writer // byte-counted connection writer
	buf []byte    // frame scratch, reused under mu
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport opens addrs loopback listeners on ephemeral ports, one
// per address 0..addrs-1, and returns a transport routing Send(m) to the
// listener of its mailbox address over a cached connection.
func NewTCPTransport(addrs int) (*TCPTransport, error) {
	if addrs <= 0 {
		return nil, fmt.Errorf("dist: TCP transport needs a positive address count, got %d", addrs)
	}
	t := &TCPTransport{
		listeners: make([]net.Listener, addrs),
		ports:     make([]int, addrs),
		boxes:     make([]chan Message, addrs),
		outbound:  make(map[int]*tcpConn),
		inbound:   make(map[net.Conn]struct{}),
		closedC:   make(chan struct{}),
	}
	for i := 0; i < addrs; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("dist: listening for address %d: %w", i, err)
		}
		t.listeners[i] = ln
		t.ports[i] = ln.Addr().(*net.TCPAddr).Port
		t.boxes[i] = make(chan Message, 256)
		t.wg.Add(1)
		go t.accept(i, ln)
	}
	return t, nil
}

func (t *TCPTransport) accept(addr int, ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serve(addr, c)
	}
}

func (t *TCPTransport) serve(addr int, c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
		_ = c.Close()
	}()
	cr := &countReader{r: c, n: &t.bytesIn}
	// The bytes come from outside the process: an unknown version byte
	// (another protocol, or a peer that skips it) kills the connection
	// rather than decoding garbage.
	var version [1]byte
	if _, err := io.ReadFull(cr, version[:]); err != nil || version[0] != wireVersionBinary {
		return
	}
	wr := newWireReader(cr)
	for {
		m, err := wr.readMessage()
		if err != nil {
			return
		}
		select {
		case <-t.closedC:
			return
		default:
		}
		select {
		case t.boxes[addr] <- m:
		default:
			// Full mailbox: congestion loss, like ChanTransport — the
			// reader must not stall the whole connection behind one
			// saturated destination.
			t.congested.Add(1)
			recordNetDrop(t.rec.Load(), m, addr, flight.ReasonCongestion)
		}
	}
}

// Congested returns the number of messages dropped because the
// destination mailbox was full.
func (t *TCPTransport) Congested() int64 { return t.congested.Load() }

// BytesOut returns the total wire bytes written to outbound connections.
func (t *TCPTransport) BytesOut() int64 { return t.bytesOut.Load() }

// BytesIn returns the total bytes read off accepted connections.
func (t *TCPTransport) BytesIn() int64 { return t.bytesIn.Load() }

// Port returns the loopback port the given address listens on.
func (t *TCPTransport) Port(addr int) (int, error) {
	if addr < 0 || addr >= len(t.ports) {
		return 0, fmt.Errorf("dist: address %d outside [0,%d)", addr, len(t.ports))
	}
	return t.ports[addr], nil
}

func (t *TCPTransport) conn(to int) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if to < 0 || to >= len(t.ports) {
		t.mu.Unlock()
		return nil, fmt.Errorf("dist: address %d outside [0,%d)", to, len(t.ports))
	}
	if oc, ok := t.outbound[to]; ok {
		t.mu.Unlock()
		return oc, nil
	}
	t.mu.Unlock()

	// Dial outside the lock: holding it would serialize every Send in the
	// cluster behind each connection setup.
	c, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", t.ports[to]))
	if err != nil {
		return nil, fmt.Errorf("dist: dialing address %d: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = c.Close()
		return nil, ErrClosed
	}
	if oc, ok := t.outbound[to]; ok {
		// Lost the race against a concurrent dial to the same address.
		_ = c.Close()
		return oc, nil
	}
	cw := &countWriter{w: c, n: &t.bytesOut}
	oc := &tcpConn{c: c, w: cw}
	// The version byte is the first thing on the wire; writing it here,
	// before the connection is published in t.outbound, means no Send can
	// race ahead of it.
	if _, err := cw.Write([]byte{wireVersionBinary}); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("dist: handshaking address %d: %w", to, err)
	}
	t.outbound[to] = oc
	return oc, nil
}

// Send implements Transport.
func (t *TCPTransport) Send(m Message) error {
	addr := mailboxAddr(m)
	oc, err := t.conn(addr)
	if err != nil {
		return err
	}
	oc.mu.Lock()
	oc.buf = appendMessage(oc.buf[:0], m)
	_, err = oc.w.Write(oc.buf)
	oc.mu.Unlock()
	if err != nil {
		// Drop the broken connection so a later Send re-dials.
		t.mu.Lock()
		if t.outbound[addr] == oc {
			delete(t.outbound, addr)
		}
		t.mu.Unlock()
		_ = oc.c.Close()
		if t.isClosed() {
			return ErrClosed
		}
		return fmt.Errorf("dist: sending to address %d: %w", addr, err)
	}
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv(addr int) (<-chan Message, error) {
	if addr < 0 || addr >= len(t.boxes) {
		return nil, fmt.Errorf("dist: address %d outside [0,%d)", addr, len(t.boxes))
	}
	return t.boxes[addr], nil
}

func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Close implements Transport: it closes all listeners and connections and
// waits for the reader goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.closedC)
	for _, ln := range t.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
	for _, oc := range t.outbound {
		_ = oc.c.Close()
	}
	for c := range t.inbound {
		_ = c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
