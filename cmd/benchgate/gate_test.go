package main

import "testing"

// runs builds one correct run per value, each reporting metric name.
func runs(name string, vals ...float64) []result {
	out := make([]result, len(vals))
	for i, v := range vals {
		out[i] = result{Correct: true, Metrics: map[string]metricValue{name: {v}}}
	}
	return out
}

// The parent's runs have median 1.0 and interquartile range
// 1.0375 - 0.9575 = 0.08 (exclusive method, 10 values).
var parentWall = []float64{0.90, 0.95, 0.96, 0.98, 0.99, 1.01, 1.02, 1.03, 1.06, 1.10}

func shifted(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func TestQuartilesExclusive(t *testing.T) {
	q := quartiles(parentWall)
	want := [3]float64{0.9575, 1.0, 1.0375}
	for i := range q {
		if d := q[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("q%d = %v, want %v", i+1, q[i], want[i])
		}
	}
}

func TestJudgeWorkload(t *testing.T) {
	lower := []metricDef{{Name: "wall_s", Better: "lower"}}
	higher := []metricDef{{Name: "ops_per_s", Better: "higher"}}
	// Nine losses: every pair but the last loses by 0.07, inside the IQR.
	nineInside := shifted(parentWall, 0.07)
	nineInside[9] = parentWall[9] - 0.01
	// Eight losses far beyond the IQR; the last two pairs are wins.
	eightBeyond := shifted(parentWall, 0.5)
	eightBeyond[8], eightBeyond[9] = parentWall[8]-0.01, parentWall[9]-0.01
	// Nine losses beyond the IQR and one tie: the tie is no loss, so 9/10.
	nineAndTie := shifted(parentWall, 0.5)
	nineAndTie[0] = parentWall[0]
	// Eight losses beyond the IQR and two ties: ties are no losses either.
	eightAndTies := shifted(parentWall, 0.5)
	eightAndTies[0], eightAndTies[1] = parentWall[0], parentWall[1]
	incorrect := runs("wall_s", parentWall...)
	incorrect[3] = result{Correct: false, Failed: 1, Metrics: map[string]metricValue{}}
	moreFailed := runs("wall_s", parentWall...)
	moreFailed[6].Failed = 1
	parentIncorrect := runs("wall_s", parentWall...)
	parentIncorrect[2].Correct = false

	cases := []struct {
		name         string
		defs         []metricDef
		parent, head []result
		ok           bool
	}{
		{"A/A identical samples", lower, runs("wall_s", parentWall...), runs("wall_s", parentWall...), true},
		{"10/10 losses beyond the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", shifted(parentWall, 0.1)...), false},
		{"10/10 losses inside the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", shifted(parentWall, 0.05)...), true},
		{"9/10 losses inside the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", nineInside...), true},
		{"8/10 losses beyond the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", eightBeyond...), true},
		{"9 losses and a tie beyond the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", nineAndTie...), false},
		{"8 losses and 2 ties beyond the IQR", lower, runs("wall_s", parentWall...), runs("wall_s", eightAndTies...), true},
		{"10/10 improvements", lower, runs("wall_s", parentWall...), runs("wall_s", shifted(parentWall, -0.5)...), true},
		{"higher is better: head lower in 10/10", higher, runs("ops_per_s", parentWall...), runs("ops_per_s", shifted(parentWall, -0.1)...), false},
		{"higher is better: head higher in 10/10", higher, runs("ops_per_s", parentWall...), runs("ops_per_s", shifted(parentWall, 0.5)...), true},
		{"head run incorrect", lower, runs("wall_s", parentWall...), incorrect, false},
		{"head failed more ops", lower, runs("wall_s", parentWall...), moreFailed, false},
		{"parent run incorrect", lower, parentIncorrect, runs("wall_s", parentWall...), false},
	}
	for _, c := range cases {
		rows, err := judgeWorkload("w", c.defs, c.parent, c.head)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ok := true
		for _, r := range rows {
			ok = ok && r.ok
		}
		if ok != c.ok {
			t.Errorf("%s: passed = %v, want %v; rows %+v", c.name, ok, c.ok, rows)
		}
	}
}

func TestJudgeWorkloadMissingMetric(t *testing.T) {
	defs := []metricDef{{Name: "setup_s", Better: "lower"}}
	if _, err := judgeWorkload("w", defs, runs("wall_s", parentWall...), runs("wall_s", parentWall...)); err == nil {
		t.Error("a correct run without an end-to-end metric was not an error")
	}
}

func TestJudgeBytes(t *testing.T) {
	defs := []metricDef{{Name: "shard-1m.bytes_per_node", Better: "lower"}}
	traced := func(correct bool, v float64) result {
		return result{Correct: correct, Metrics: map[string]metricValue{"shard-1m.bytes_per_node": {v}}}
	}
	cases := []struct {
		name         string
		parent, head result
		ok           bool
	}{
		{"equal", traced(true, 16), traced(true, 16), true},
		{"1.10x", traced(true, 100), traced(true, 110), true},
		{"1.11x", traced(true, 100), traced(true, 111), false},
		{"smaller", traced(true, 16), traced(true, 8), true},
		{"head incorrect", traced(true, 16), traced(false, 16), false},
	}
	for _, c := range cases {
		rows, err := judgeBytes(defs, c.parent, c.head)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ok := true
		for _, r := range rows {
			ok = ok && r.ok
		}
		if ok != c.ok {
			t.Errorf("%s: passed = %v, want %v; rows %+v", c.name, ok, c.ok, rows)
		}
	}
}
