package dist

import (
	"fmt"
	"net"
	"testing"
	"time"

	"sparsecut/internal/rng"
)

func TestChanTransportRoundtrip(t *testing.T) {
	tr := NewChanTransport(4)
	want := Message{Kind: MsgLock, From: 1, To: 2, Seq: 7, Edge: 3, X: 0.5}
	if err := tr.Send(want); err != nil {
		t.Fatal(err)
	}
	box, err := tr.Recv(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-box; got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(want); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestChanTransportDropsOnFullMailbox(t *testing.T) {
	tr := NewChanTransport(1)
	if err := tr.Send(Message{To: 0}); err != nil {
		t.Fatal(err)
	}
	// A full mailbox must drop (congestion loss), never block: two actors
	// blocked sending to each other's full mailboxes would deadlock.
	done := make(chan error, 1)
	go func() { done <- tr.Send(Message{To: 0}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Send to full mailbox returned %v, want nil (drop)", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send to full mailbox blocked")
	}
	if got := tr.Congested(); got != 1 {
		t.Errorf("Congested() = %d, want 1", got)
	}
}

// delivered pumps n sequence-numbered messages through tr and reports which
// sequence numbers reach mailbox 0.
func delivered(t *testing.T, tr Transport, n int) []uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tr.Send(Message{Kind: MsgLock, To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	box, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for {
		select {
		case m := <-box:
			got = append(got, m.Seq)
		default:
			return got
		}
	}
}

func TestDropTransportDeterministicGivenSeed(t *testing.T) {
	const n = 500
	const rate = 0.2
	run := func(seed uint64) []uint64 {
		dt, err := NewDropTransport(NewChanTransport(n), rate, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return delivered(t, dt, n)
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at position %d: %d vs %d", i, a[i], b[i])
		}
	}
	if kept := float64(len(a)) / n; kept < 0.7 || kept > 0.9 {
		t.Errorf("kept fraction %.3f far from 1-rate=%.1f", kept, 1-rate)
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical drop patterns over 500 messages")
	}
}

func TestDropTransportCountsDrops(t *testing.T) {
	dt, err := NewDropTransport(NewChanTransport(100), 0.5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	got := delivered(t, dt, 100)
	if int(dt.Dropped())+len(got) != 100 {
		t.Errorf("dropped %d + delivered %d != 100", dt.Dropped(), len(got))
	}
}

func TestDropTransportValidation(t *testing.T) {
	inner := NewChanTransport(1)
	cases := []struct {
		name  string
		inner Transport
		rate  float64
		r     *rng.RNG
	}{
		{"nil inner", nil, 0.1, rng.New(1)},
		{"negative rate", inner, -0.1, rng.New(1)},
		{"rate one", inner, 1, rng.New(1)},
		{"nil rng", inner, 0.1, nil},
	}
	for _, c := range cases {
		if _, err := NewDropTransport(c.inner, c.rate, c.r); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestDelayTransportDeliversEverything(t *testing.T) {
	const n = 50
	dt, err := NewDelayTransport(NewChanTransport(n), 5*time.Millisecond, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := dt.Send(Message{To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	box, _ := dt.Recv(0)
	seen := make(map[uint64]bool)
	deadline := time.After(2 * time.Second)
	for len(seen) < n {
		select {
		case m := <-box:
			seen[m.Seq] = true
		case <-deadline:
			t.Fatalf("only %d/%d messages delivered within 2s", len(seen), n)
		}
	}
}

func TestDelayTransportCloseCancelsPending(t *testing.T) {
	dt, err := NewDelayTransport(NewChanTransport(8), time.Hour, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := dt.Send(Message{To: 0, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dt.Send(Message{To: 0}); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
}

func TestDelayTransportValidation(t *testing.T) {
	if _, err := NewDelayTransport(nil, time.Millisecond, rng.New(1)); err == nil {
		t.Error("nil inner: no error")
	}
	if _, err := NewDelayTransport(NewChanTransport(1), -time.Millisecond, rng.New(1)); err == nil {
		t.Error("negative delay: no error")
	}
	if _, err := NewDelayTransport(NewChanTransport(1), time.Millisecond, nil); err == nil {
		t.Error("nil rng: no error")
	}
}

func TestTCPTransportRoundtrip(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Port(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Port(5); err == nil {
		t.Error("out-of-range Port: no error")
	}
	box1, err := tr.Recv(1)
	if err != nil {
		t.Fatal(err)
	}
	box0, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	// Both directions, including a second message reusing the cached
	// connection.
	for i := 0; i < 3; i++ {
		want := Message{Kind: MsgPropose, From: 0, To: 1, Seq: uint64(i), Edge: 2, X: -1.25}
		if err := tr.Send(want); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-box1:
			if got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered within 2s")
		}
	}
	back := Message{Kind: MsgCommit, From: 1, To: 0, Seq: 9}
	if err := tr.Send(back); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-box0:
		if got != back {
			t.Errorf("got %+v, want %+v", got, back)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reverse message not delivered within 2s")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(back); err != ErrClosed {
		t.Errorf("Send after Close: got %v, want ErrClosed", err)
	}
}

func TestTCPTransportValidation(t *testing.T) {
	if _, err := NewTCPTransport(0); err == nil {
		t.Error("zero addresses: no error")
	}
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Message{To: 3}); err == nil {
		t.Error("send to unknown address: no error")
	}
	if _, err := tr.Recv(-1); err == nil {
		t.Error("recv on negative address: no error")
	}

	// The accept side reads bytes from outside the process: a stream whose
	// first byte is not the binary version byte is dropped, even when a
	// valid frame follows. The same frame behind the right byte arrives.
	port, err := tr.Port(0)
	if err != nil {
		t.Fatal(err)
	}
	box, err := tr.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendMessage(nil, Message{Kind: MsgCommit, From: 1, To: 0, Seq: 7})
	for _, version := range []byte{'G', wireVersionBinary} {
		c, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(append([]byte{version}, frame...)); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-box:
			if version != wireVersionBinary {
				t.Errorf("stream with version byte %q delivered %+v", version, m)
			}
		case <-time.After(200 * time.Millisecond):
			if version == wireVersionBinary {
				t.Error("valid stream not delivered within 200ms")
			}
		}
		c.Close()
	}
}
