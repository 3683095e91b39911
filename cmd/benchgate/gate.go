package main

import (
	"fmt"
	"sort"
)

const (
	// pairs is the number of paired runs per workload; pair i runs seed
	// i+1 on both sides.
	pairs = 10
	// minLosses is how many pairs the head must lose before a metric can
	// fail.
	minLosses = 9
	// maxBytesRatio bounds the head's retained bytes per node as a
	// multiple of the parent's.
	maxBytesRatio = 1.10
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Better string `json:"better"` // "lower" or "higher"
}

// result is one perfbench run: the JSON object on the last line of its
// standard output.
type result struct {
	Correct bool                   `json:"correct"`
	Failed  int64                  `json:"failed"`
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// row is one line of the gate's table.
type row struct {
	workload, check, parent, head, detail string
	ok                                    bool
}

// judgeMetric applies the gate's rule to one metric's paired samples,
// parent[i] and head[i] coming from pair i. The head loses a pair when its
// value is worse; ties count for neither side. The metric fails when the
// head loses at least minLosses pairs and its median is worse than the
// parent's by more than the parent's interquartile range.
func judgeMetric(workload string, d metricDef, parent, head []float64) row {
	worse := 1.0 // lower is better: a larger value is worse
	if d.Better == "higher" {
		worse = -1
	}
	losses := 0
	for i := range parent {
		if worse*(head[i]-parent[i]) > 0 {
			losses++
		}
	}
	pq, hq := quartiles(parent), quartiles(head)
	iqr := pq[2] - pq[0]
	gap := worse * (hq[1] - pq[1])
	return row{
		workload: workload,
		check:    fmt.Sprintf("%s (%s is better)", d.Name, d.Better),
		parent:   spread(pq),
		head:     spread(hq),
		detail:   fmt.Sprintf("lost %d/%d, median worse by %.3g, parent IQR %.3g", losses, len(parent), gap, iqr),
		ok:       losses < minLosses || gap <= iqr,
	}
}

// spread prints quartiles as "median [q1, q3]".
func spread(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

// judgeWorkload checks a workload's paired runs. A pair fails when either
// run is incorrect or the head failed more operations than the parent;
// then no metric is judged, since an incorrect run reports none. Otherwise
// each end-to-end metric gets its own row from judgeMetric.
func judgeWorkload(workload string, defs []metricDef, parent, head []result) ([]row, error) {
	ops := row{workload: workload, check: "correct, failed ops", ok: true}
	var pCorrect, hCorrect int
	var pFailed, hFailed int64
	for i := range parent {
		p, h := parent[i], head[i]
		if p.Correct {
			pCorrect++
		}
		if h.Correct {
			hCorrect++
		}
		pFailed += p.Failed
		hFailed += h.Failed
		if !p.Correct || !h.Correct || h.Failed > p.Failed {
			ops.ok = false
			if ops.detail == "" {
				ops.detail = fmt.Sprintf("first bad pair: seed %d", i+1)
			}
		}
	}
	ops.parent = fmt.Sprintf("%d/%d correct, %d failed", pCorrect, len(parent), pFailed)
	ops.head = fmt.Sprintf("%d/%d correct, %d failed", hCorrect, len(head), hFailed)
	rows := []row{ops}
	if !ops.ok {
		return rows, nil
	}
	for _, d := range defs {
		pv, err := values(parent, d.Name)
		if err != nil {
			return nil, fmt.Errorf("parent %s: %w", workload, err)
		}
		hv, err := values(head, d.Name)
		if err != nil {
			return nil, fmt.Errorf("head %s: %w", workload, err)
		}
		rows = append(rows, judgeMetric(workload, d, pv, hv))
	}
	return rows, nil
}

// judgeBytes checks the traced runs' retained bytes per node: the head
// fails above maxBytesRatio of the parent, or when either run is
// incorrect.
func judgeBytes(defs []metricDef, parent, head result) ([]row, error) {
	if !parent.Correct || !head.Correct {
		return []row{{
			workload: "traced",
			check:    "correct",
			parent:   fmt.Sprint(parent.Correct),
			head:     fmt.Sprint(head.Correct),
		}}, nil
	}
	var rows []row
	for _, d := range defs {
		p, ok := parent.Metrics[d.Name]
		h, ok2 := head.Metrics[d.Name]
		if !ok || !ok2 {
			return nil, fmt.Errorf("traced run did not report %s", d.Name)
		}
		rows = append(rows, row{
			workload: "traced",
			check:    d.Name,
			parent:   fmt.Sprintf("%.4g", p.Value),
			head:     fmt.Sprintf("%.4g", h.Value),
			detail:   fmt.Sprintf("%.3fx, at most %.2fx", h.Value/p.Value, maxBytesRatio),
			ok:       h.Value <= maxBytesRatio*p.Value,
		})
	}
	return rows, nil
}

// values collects metric name from every run.
func values(runs []result, name string) ([]float64, error) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("seed %d did not report %s", i+1, name)
		}
		out[i] = m.Value
	}
	return out, nil
}

// quartiles returns the three cut points that split xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, as perfbench's spread is; the middle one is the
// median. It needs at least two values.
func quartiles(xs []float64) (q [3]float64) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j, delta := max(1, min(i*m/4, n-1)), i*m%4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
