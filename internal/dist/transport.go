package dist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// MsgKind discriminates protocol messages. See machine.go for the exchange
// protocol that produces them.
type MsgKind uint8

const (
	// MsgLock is initiator → responder: request an exchange over Edge,
	// carrying the initiator's current value in X.
	MsgLock MsgKind = iota + 1
	// MsgPropose is responder → initiator: the responder has locked
	// itself and computed the exchange; X carries the delta the initiator
	// would add to its value. Nothing is committed yet. Proposals are
	// retransmitted until answered with a COMMIT or a NACK.
	MsgPropose
	// MsgNack aborts. Responder → initiator: the responder was locked (or
	// draining). Initiator → responder: the proposal arrived for an
	// exchange the initiator already gave up on. Either way no state
	// changed anywhere.
	MsgNack
	// MsgCommit is initiator → responder: the initiator has applied its
	// half (+X); the responder applies the negation and unlocks.
	MsgCommit
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgLock:
		return "LOCK"
	case MsgPropose:
		return "PROPOSE"
	case MsgNack:
		return "NACK"
	case MsgCommit:
		return "COMMIT"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one protocol message. All fields are exported so transports
// may serialise messages (the TCP transport's codec is in wire.go).
type Message struct {
	Kind MsgKind
	// From and To are protocol endpoints: node IDs.
	From, To int
	// Via, when non-zero, overrides the transport mailbox the message is
	// delivered to: mailbox Via-1 instead of mailbox To. The sharded
	// runtime sets it so that S shard mailboxes can serve N >> S nodes
	// over unmodified transports — the shard that owns node To drains
	// mailbox Via-1 and dispatches on To itself. Zero keeps the
	// one-mailbox-per-node routing. The offset-by-one encoding keeps the zero value
	// meaningful and mailbox 0 addressable.
	Via int
	// Epoch is the runtime's Run that produced the message. Receivers drop
	// messages from older runs: a stale LOCK must not start an exchange
	// against a previous run's value snapshot, and every exchange of a
	// finished run is already resolved (runs end at quiescence, or settle
	// in-process on transport death), so dropping is safe.
	Epoch uint64
	// Seq is the initiator's exchange sequence number; (initiator, Seq)
	// uniquely identifies one exchange attempt.
	Seq uint64
	// Re is the request kind this message answers (MsgLock for PROPOSE and
	// the busy-responder NACK, MsgPropose for COMMIT and the
	// stale-proposal NACK; zero on LOCK, which answers nothing). NACK
	// handling depends on it: seq counters are per-node namespaces, so a
	// NACK refusing my LOCK and a NACK refusing my held proposal can carry
	// the same (peer, seq) — only the answered kind tells an initiator
	// abort from a responder rollback (see Machine.Deliver and
	// MutNackRoleConfusion for the collision this prevents).
	Re MsgKind
	// Edge is the graph edge the exchange ticks.
	Edge graph.EdgeID
	// X is the payload: the initiator's value in a LOCK, the initiator's
	// delta in a PROPOSE, unused otherwise.
	X float64
}

// mailboxAddr is the transport mailbox m is delivered to: the Via
// override when set, the destination node otherwise. Every transport
// routes on this so the sharded runtime's S-mailboxes-for-N-nodes scheme
// works uniformly across Chan/Drop/Delay/TCP.
func mailboxAddr(m Message) int {
	if m.Via > 0 {
		return m.Via - 1
	}
	return m.To
}

// ErrClosed is returned by Send on a transport that has been closed.
var ErrClosed = errors.New("dist: transport closed")

// Transport moves Messages between addresses. Implementations must be safe
// for concurrent use by many goroutines. Delivery is best-effort: it may be
// lossy (DropTransport, or any transport under congestion) or slow
// (DelayTransport) but never duplicating or corrupting — the exchange
// protocol tolerates loss and reordering, and generates its own duplicates
// (proposal retransmission) which receivers deduplicate.
type Transport interface {
	// Send delivers m to its mailbox (m.To, or m.Via-1 when the Via
	// routing override is set), or drops it (congestion is loss,
	// as on a real network — a blocking Send could deadlock two actors
	// with mutually full mailboxes). Send must not block indefinitely.
	Send(m Message) error
	// Recv returns the mailbox channel for addr. Repeated calls with the
	// same addr return the same channel.
	Recv(addr int) (<-chan Message, error)
	// Close releases transport resources. Subsequent Sends fail with
	// ErrClosed; mailbox channels are left open (drained by readers).
	Close() error
}

// ChanTransport is the in-memory transport: one buffered Go channel per
// address, created lazily. It is the reference semantics every other
// transport layers on.
type ChanTransport struct {
	buf       int
	mu        sync.Mutex
	boxes     map[int]chan Message
	closed    chan struct{}
	once      sync.Once
	congested atomic.Int64
	// rec receives a flight record per congestion drop (atomic because
	// instrumentation may attach after senders are already active).
	rec atomic.Pointer[flight.Recorder]
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport returns an in-memory transport whose mailboxes buffer
// buf messages each (minimum 1). A generous buffer — a small multiple of
// the node count — avoids backpressure stalls under bursty retransmission.
func NewChanTransport(buf int) *ChanTransport {
	if buf < 1 {
		buf = 1
	}
	return &ChanTransport{
		buf:    buf,
		boxes:  make(map[int]chan Message),
		closed: make(chan struct{}),
	}
}

func (t *ChanTransport) box(addr int) chan Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.boxes[addr]
	if !ok {
		b = make(chan Message, t.buf)
		t.boxes[addr] = b
	}
	return b
}

// Send implements Transport. A full destination mailbox drops the message
// (congestion loss): blocking would let two actors with mutually full
// mailboxes deadlock, whereas the exchange protocol already recovers from
// loss of any message kind.
func (t *ChanTransport) Send(m Message) error {
	box := t.box(mailboxAddr(m))
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	select {
	case box <- m:
	default:
		t.congested.Add(1)
		recordNetDrop(t.rec.Load(), m, m.From, flight.ReasonCongestion)
	}
	return nil
}

// Congested returns the number of messages dropped because the
// destination mailbox was full.
func (t *ChanTransport) Congested() int64 { return t.congested.Load() }

// Recv implements Transport.
func (t *ChanTransport) Recv(addr int) (<-chan Message, error) {
	return t.box(addr), nil
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}

// DropTransport decorates a Transport with i.i.d. Bernoulli message loss —
// the fault-injection layer of experiment E12. Drop decisions are drawn from
// a private RNG, so given the same seed and the same sequence of Send calls
// the same messages are dropped.
type DropTransport struct {
	inner   Transport
	rate    float64
	mu      sync.Mutex
	r       *rng.RNG
	dropped atomic.Int64
	rec     atomic.Pointer[flight.Recorder]
}

var _ Transport = (*DropTransport)(nil)

// NewDropTransport wraps inner so that each message is independently
// dropped with probability dropRate in [0, 1). The RNG is owned by the
// transport afterwards (guarded internally; do not share it).
func NewDropTransport(inner Transport, dropRate float64, r *rng.RNG) (*DropTransport, error) {
	if inner == nil {
		return nil, errors.New("dist: DropTransport requires an inner transport")
	}
	if !(dropRate >= 0 && dropRate < 1) {
		return nil, fmt.Errorf("dist: drop rate %v outside [0,1)", dropRate)
	}
	if r == nil {
		return nil, errors.New("dist: DropTransport requires an RNG")
	}
	return &DropTransport{inner: inner, rate: dropRate, r: r}, nil
}

// Send implements Transport, losing the message with the configured
// probability (a loss is a successful no-op, as on a real lossy network).
func (t *DropTransport) Send(m Message) error {
	t.mu.Lock()
	u := t.r.Float64()
	t.mu.Unlock()
	if u < t.rate {
		t.dropped.Add(1)
		recordNetDrop(t.rec.Load(), m, m.From, flight.ReasonLoss)
		return nil
	}
	return t.inner.Send(m)
}

// Recv implements Transport.
func (t *DropTransport) Recv(addr int) (<-chan Message, error) { return t.inner.Recv(addr) }

// Close implements Transport.
func (t *DropTransport) Close() error { return t.inner.Close() }

// Dropped returns the number of messages lost so far.
func (t *DropTransport) Dropped() int64 { return t.dropped.Load() }

// DelayTransport decorates a Transport with random per-message latency,
// uniform in [0, maxDelay) — the asynchronous-network scenario layer.
// Because messages are delayed independently they may be reordered, which
// the exchange protocol tolerates.
type DelayTransport struct {
	inner   Transport
	max     time.Duration
	mu      sync.Mutex
	r       *rng.RNG
	timers  map[*time.Timer]struct{}
	closed  bool
	delayed atomic.Int64
	// inflight counts timer callbacks that have passed the closed check
	// and are committed to delivering; Close waits for them, so that no
	// message reaches the inner transport after Close returns.
	inflight sync.WaitGroup
	// innerErr records the first delivery failure from the inner
	// transport. Because the real Send happens asynchronously in a timer
	// callback, its error cannot be returned to the original caller;
	// surfacing it on the *next* Send keeps a permanently failed inner
	// transport visible (ShardRuntime.Run relies on send errors to cut a
	// run short instead of retransmitting forever).
	innerErr error
}

var _ Transport = (*DelayTransport)(nil)

// NewDelayTransport wraps inner so that each message is delivered after an
// independent uniform delay in [0, maxDelay). The RNG is owned by the
// transport afterwards.
func NewDelayTransport(inner Transport, maxDelay time.Duration, r *rng.RNG) (*DelayTransport, error) {
	if inner == nil {
		return nil, errors.New("dist: DelayTransport requires an inner transport")
	}
	if maxDelay < 0 {
		return nil, fmt.Errorf("dist: negative max delay %v", maxDelay)
	}
	if r == nil {
		return nil, errors.New("dist: DelayTransport requires an RNG")
	}
	return &DelayTransport{inner: inner, max: maxDelay, r: r, timers: make(map[*time.Timer]struct{})}, nil
}

// Send implements Transport: the message is handed to the inner transport
// after the sampled delay.
func (t *DelayTransport) Send(m Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if err := t.innerErr; err != nil {
		t.mu.Unlock()
		return err
	}
	d := time.Duration(t.r.Float64() * float64(t.max))
	var tm *time.Timer
	tm = time.AfterFunc(d, func() {
		// The callback acquires the same mutex the creator holds while
		// assigning tm, so the read below is ordered after the write even
		// for a zero delay.
		t.mu.Lock()
		delete(t.timers, tm)
		closed := t.closed
		if !closed {
			// Registered under the same mutex Close takes to set the
			// flag, so Close's Wait observes this delivery.
			t.inflight.Add(1)
		}
		t.mu.Unlock()
		if closed {
			return
		}
		defer t.inflight.Done()
		if err := t.inner.Send(m); err != nil {
			t.mu.Lock()
			if t.innerErr == nil {
				t.innerErr = err
			}
			t.mu.Unlock()
		}
	})
	t.timers[tm] = struct{}{}
	t.mu.Unlock()
	t.delayed.Add(1)
	return nil
}

// Delayed returns the number of messages that have been scheduled through
// the delay layer.
func (t *DelayTransport) Delayed() int64 { return t.delayed.Load() }

// Recv implements Transport.
func (t *DelayTransport) Recv(addr int) (<-chan Message, error) { return t.inner.Recv(addr) }

// Close implements Transport: every message still in the timer wheel is
// cancelled, and Close blocks for the (at most a few) callbacks already
// committed to delivering — after Close returns, no message reaches the
// inner transport through this layer.
func (t *DelayTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	for tm := range t.timers {
		tm.Stop()
		delete(t.timers, tm)
	}
	t.mu.Unlock()
	t.inflight.Wait()
	return t.inner.Close()
}
