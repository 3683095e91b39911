package dist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sparsecut/internal/leakcheck"
	"sparsecut/internal/rng"
)

// These tests pin the Transport interface's Close contract across every
// implementation: Send after Close fails with ErrClosed (directly or via
// errors.Is through decorators), Close is idempotent, a closed transport
// delivers nothing late, concurrent Close/Send never panics (mailbox
// channels are deliberately never closed — a close would race a send), and
// no implementation leaks goroutines or live timers past Close.

func testMessage(to int) Message {
	return Message{Kind: MsgLock, From: 0, To: to, Edge: 0, Seq: 1, X: 1.5, Epoch: 1}
}

// TestSendAfterCloseFailsEverywhere covers all four transports. The
// DropTransport is built with rate 0 so the decorated Send always reaches
// the closed inner layer instead of being (legitimately) absorbed as loss.
func TestSendAfterCloseFailsEverywhere(t *testing.T) {
	build := []struct {
		name string
		make func(t *testing.T) Transport
	}{
		{"chan", func(t *testing.T) Transport { return NewChanTransport(4) }},
		{"drop", func(t *testing.T) Transport {
			tr, err := NewDropTransport(NewChanTransport(4), 0, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"delay", func(t *testing.T) Transport {
			tr, err := NewDelayTransport(NewChanTransport(4), time.Millisecond, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"tcp", func(t *testing.T) Transport {
			tr, err := NewTCPTransport(2)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
	}
	for _, b := range build {
		b := b
		t.Run(b.name, func(t *testing.T) {
			tr := b.make(t)
			if err := tr.Send(testMessage(1)); err != nil {
				t.Fatalf("Send before Close: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("second Close not idempotent: %v", err)
			}
			if err := tr.Send(testMessage(1)); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close returned %v, want ErrClosed", err)
			}
		})
	}
}

// TestDelayTransportCloseCancelsDeliveries: messages in the delay layer's
// timer wheel at Close time must never reach the inner transport — Close
// semantics say "cancelling all in-flight deliveries", and a late delivery
// would resurrect protocol messages after a ShardRuntime.Run has already
// settled its stranded proposals.
func TestDelayTransportCloseCancelsDeliveries(t *testing.T) {
	base := leakcheck.Snapshot()
	inner := NewChanTransport(64)
	tr, err := NewDelayTransport(inner, 50*time.Millisecond, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := tr.Send(testMessage(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// A near-zero delay draw may legitimately have delivered before Close
	// landed; drain those. Everything still in the timer wheel at Close
	// must be cancelled: after sleeping past the longest possible delay,
	// the inner mailbox has to stay empty.
	box, err := inner.Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	for drained := false; !drained; {
		select {
		case <-box:
		default:
			drained = true
		}
	}
	time.Sleep(80 * time.Millisecond) // past every sampled delay
	select {
	case m := <-box:
		t.Fatalf("message %+v delivered after Close", m)
	default:
	}
	base.Check(t)
}

// TestDelayTransportCloseRace hammers Send from many goroutines while
// Close lands in the middle: no panic, no non-ErrClosed error, and no
// leaked timer callbacks. Run under -race this also proves the timer
// bookkeeping map is properly guarded.
func TestDelayTransportCloseRace(t *testing.T) {
	base := leakcheck.Snapshot()
	tr, err := NewDelayTransport(NewChanTransport(1024), time.Millisecond, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const senders = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if err := tr.Send(testMessage(1)); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Send during close: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(500 * time.Microsecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	base.Check(t)
}

// TestChanTransportCloseRace: same hammer on the base transport. Mailboxes
// are never closed (receivers drain them), so a Send racing Close must
// either succeed or return ErrClosed — never panic with a send on a
// closed channel.
func TestChanTransportCloseRace(t *testing.T) {
	tr := NewChanTransport(8)
	const senders = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				if err := tr.Send(testMessage(i % 4)); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Send during close: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The mailbox channel stays open for draining after Close.
	box, err := tr.Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	for drained := false; !drained; {
		select {
		case <-box:
		default:
			drained = true
		}
	}
}

// TestTCPTransportCloseNoLeak: the TCP transport runs an accept loop per
// address plus a serve loop per inbound connection; Close must unwind all
// of them (and the cached outbound connections) promptly.
func TestTCPTransportCloseNoLeak(t *testing.T) {
	base := leakcheck.Snapshot()
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise real connections so serve goroutines exist before Close.
	for to := 0; to < 3; to++ {
		if err := tr.Send(testMessage(to)); err != nil {
			t.Fatal(err)
		}
	}
	for to := 0; to < 3; to++ {
		box, err := tr.Recv(to)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-box:
		case <-time.After(2 * time.Second):
			t.Fatalf("message to %d never delivered", to)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	base.Check(t)
}
