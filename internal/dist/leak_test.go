package dist

import (
	"runtime"
	"testing"
	"time"
)

// A goroutine-leak check for the runtime's shutdown tests. The model is a
// count baseline: snapshot the goroutine count before the code under test
// starts anything, and after shutdown assert the count has settled back to
// the baseline. Counts (rather than goroutine identities) keep the check
// robust to runtime-internal goroutines, at the cost of not naming the
// leaked goroutine directly — which the full stack dump printed on failure
// recovers in practice. Shutdown is asynchronous (timer callbacks finish,
// shard loops unwind), so the check polls with GC pressure for a bounded
// window instead of asserting instantaneously.

// settleWindow is how long check waits for goroutine counts to drain back
// to the baseline before declaring a leak.
const settleWindow = 2 * time.Second

// leakBase is a goroutine-count baseline captured by leakSnapshot.
type leakBase struct{ n int }

// leakSnapshot records the current goroutine count, after a GC cycle so
// already-dead goroutines from earlier tests are collected out of the
// baseline. Take it before constructing the system under test.
func leakSnapshot() leakBase {
	runtime.GC()
	return leakBase{n: runtime.NumGoroutine()}
}

// check fails t (via Errorf, so cleanup-safe) if the goroutine count has
// not returned to the baseline within the settle window, printing every
// live goroutine's stack so the leak is identifiable.
func (b leakBase) check(t testing.TB) {
	t.Helper()
	if n, stacks, ok := settle(b.n, settleWindow); !ok {
		t.Errorf("leak check: %d goroutines still alive after %v (baseline %d):\n%s",
			n, settleWindow, b.n, stacks)
	}
}

// settle polls until the goroutine count is at most base (ok=true) or the
// window expires, in which case it returns the excess count and a full
// stack dump (ok=false). GC runs each iteration: a goroutine that has
// returned but whose g struct is cached can otherwise inflate the count.
func settle(base int, window time.Duration) (n int, stacks []byte, ok bool) {
	deadline := time.Now().Add(window)
	for {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= base {
			return n, nil, true
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return n, buf[:runtime.Stack(buf, true)], false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSettleDetectsLeak drives the core directly (not through a testing.TB,
// which would fail this very test): a goroutine parked on a channel must be
// reported with a stack dump, and must pass once unblocked.
func TestSettleDetectsLeak(t *testing.T) {
	base := leakSnapshot()
	block := make(chan struct{})
	done := make(chan struct{})
	go func() {
		<-block
		close(done)
	}()

	n, stacks, ok := settle(base.n, 50*time.Millisecond)
	if ok {
		t.Fatal("parked goroutine not detected as a leak")
	}
	if n <= base.n {
		t.Fatalf("reported count %d not above baseline %d", n, base.n)
	}
	if len(stacks) == 0 {
		t.Fatal("no stack dump on failure")
	}

	close(block)
	<-done
	if _, _, ok := settle(base.n, settleWindow); !ok {
		t.Fatal("goroutine exit not observed within the settle window")
	}
}

func TestCheckPassesWhenQuiet(t *testing.T) {
	base := leakSnapshot()
	ch := make(chan struct{})
	go close(ch)
	<-ch
	base.check(t)
}
