package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors the parts of BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestMetricNames checks every catalogued name and unit against the
// benchmark's naming rules, and the catalogue and workload list against
// BENCHMARK.json, in order.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if !validName.MatchString(d.name) {
				t.Errorf("metric name %q is not valid", d.name)
			}
			if !validUnit.MatchString(d.unit) {
				t.Errorf("unit %q of %s is not valid", d.unit, d.name)
			}
			if seen[d.name] {
				t.Errorf("metric %s is catalogued twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json gates a subset of the workloads; the traced suite
	// runs them all.
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, at least 2 needed", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if !slices.ContainsFunc(workloads, func(c workload) bool { return c.name == w.Name }) {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalogue %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], catalogue %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalogue %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], catalogue %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}}, // two values extrapolate, as in Python
		{[]float64{2, 2, 2, 9, 2}, [3]float64{2, 2, 5.5}},
	} {
		got, ok := quartiles(tc.data)
		if !ok {
			t.Fatalf("quartiles(%v) not defined", tc.data)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.data, got, tc.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should be undefined")
	}
}

func TestMedianSpreadRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Quartiles 2.75 and 8.25 around the median 5.5: (8.25-2.75)/5.5 = 1.
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio by zero = %v, want 0", got)
	}
}

// TestCorruptedReportRejected flips one byte of the committed report and
// expects the reproduction check to refuse it as a correctness failure.
func TestCorruptedReportRejected(t *testing.T) {
	ref, err := os.ReadFile("../" + reproReference)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBytes(ref, ref); err != nil {
		t.Fatalf("identical report rejected: %v", err)
	}
	bad := append([]byte(nil), ref...)
	bad[len(bad)/2] ^= 1
	var ce *checkError
	if err := sameBytes(bad, ref); !errors.As(err, &ce) {
		t.Fatalf("corrupted report: got %v, want a check failure", err)
	}
	if err := sameBytes(ref[:len(ref)-1], ref); !errors.As(err, &ce) {
		t.Fatalf("truncated report: got %v, want a check failure", err)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50},  // overlaps the first: union 10..50
		{Start: 70, End: 80},  // disjoint
		{Start: 90, End: 120}, // clipped to the parent: 90..100
	}
	if got := selfTime(root, kids); got != 100-40-10-10 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(root, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerResidual(t *testing.T) {
	tr := newTracer()
	root := tr.begin("w", 0)
	child := tr.begin("layer", root)
	tr.end(child)
	tr.end(root)
	r := tr.residual(root)
	if r < 0 || r > 1 {
		t.Errorf("residual %v outside [0, 1]", r)
	}
	if got := tr.children(root); len(got) != 1 || got[0].Name != "layer" {
		t.Errorf("children = %+v", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}

// TestMachineCost runs the pure-protocol probe: every exchange must commit.
func TestMachineCost(t *testing.T) {
	ns, allocs, err := machineCost()
	if err != nil {
		t.Fatal(err)
	}
	if !(ns > 0) || allocs < 0 {
		t.Errorf("machine cost %v ns, %v allocs per exchange", ns, allocs)
	}
}
