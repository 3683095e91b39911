package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// exerciseRegistry performs one fixed recording session — the workload the
// determinism test runs twice.
func exerciseRegistry() *Registry {
	r := NewRegistry()
	var committed, aborted int64
	for i := 0; i < 100; i++ {
		committed++
		if i%3 == 0 {
			aborted += 2
		}
	}
	r.CounterFunc("dist.exchange.committed", func() int64 { return committed })
	r.CounterFunc("dist.exchange.aborted", func() int64 { return aborted })
	h := r.Histogram("sweep.cell.wall_ns")
	for _, v := range []int64{1, 5, 5, 900, 1 << 30} {
		h.Observe(v)
	}
	r.CounterFunc("dist.transport.dropped", func() int64 { return 17 })
	r.GaugeFunc("sim.occupancy", func() float64 { return 0.75 })
	return r
}

// TestSnapshotDeterminism is the export contract: two identical recording
// sessions produce byte-identical metrics JSON, regardless of map
// iteration order.
func TestSnapshotDeterminism(t *testing.T) {
	var out1, out2 bytes.Buffer
	if err := exerciseRegistry().Snapshot().WriteJSON(&out1); err != nil {
		t.Fatal(err)
	}
	if err := exerciseRegistry().Snapshot().WriteJSON(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatalf("identical sessions exported different JSON:\n--- 1 ---\n%s\n--- 2 ---\n%s", out1.String(), out2.String())
	}
	for _, want := range []string{
		`"dist.exchange.committed": 100`,
		`"dist.transport.dropped": 17`,
		`"dist.exchange.aborted": 68`,
		`"sim.occupancy": 0.75`,
		`"sweep.cell.wall_ns"`,
	} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("snapshot JSON missing %s:\n%s", want, out1.String())
		}
	}
}

// TestRegistrationIdempotent: asking twice for a histogram returns the same
// one, so independent layers may instrument without coordinating.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram not idempotent")
	}
}

// TestKindCollisionPanics: a name reused across kinds is a programming
// error caught loudly.
func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x", func() int64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Error("Histogram(\"x\") after CounterFunc(\"x\") did not panic")
		}
	}()
	r.Histogram("x")
}

// TestNilInstruments is the disabled-path contract: a nil histogram
// records nothing and a nil registry hands out nil histograms, ignores
// readers and snapshots empty — never a panic, since hot paths carry nil
// pointers when telemetry is off.
func TestNilInstruments(t *testing.T) {
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil Histogram recorded")
	}
	var r *Registry
	if r.Histogram("x") != nil {
		t.Error("nil Registry handed out a non-nil histogram")
	}
	r.CounterFunc("x", func() int64 { return 1 })
	r.GaugeFunc("x", func() float64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil Registry snapshot not empty")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	events, level := int64(10), 1.0
	r.CounterFunc("events", func() int64 { return events })
	r.GaugeFunc("level", func() float64 { return level })
	h := r.Histogram("lat")
	h.Observe(4)
	before := r.Snapshot()
	events += 5
	h.Observe(4)
	h.Observe(100)
	level = 0.5
	d := r.Snapshot().Delta(before)
	if got := d.Counters["events"]; got != 5 {
		t.Errorf("counter delta = %d, want 5", got)
	}
	if got := d.Gauges["level"]; got != 0.5 {
		t.Errorf("gauge delta keeps current value: got %v, want 0.5", got)
	}
	hd := d.Histograms["lat"]
	if hd.Count != 2 || hd.Sum != 104 {
		t.Errorf("histogram delta count=%d sum=%d, want 2/104", hd.Count, hd.Sum)
	}
	if len(hd.Buckets) != 2 {
		t.Fatalf("histogram delta has %d buckets, want 2 (one grown, one new)", len(hd.Buckets))
	}
	for _, b := range hd.Buckets {
		if b.Count != 1 {
			t.Errorf("bucket [%d,%d] delta = %d, want 1", b.Lo, b.Hi, b.Count)
		}
	}
}

// TestDeltaMissingPrev: a name absent from the previous snapshot deltas
// from zero.
func TestDeltaMissingPrev(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	r.CounterFunc("new", func() int64 { return 3 })
	d := r.Snapshot().Delta(before)
	if got := d.Counters["new"]; got != 3 {
		t.Errorf("delta of fresh counter = %d, want 3", got)
	}
}
