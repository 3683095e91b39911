package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so a spread printed here reads the same as one
// computed over many runs with that tool. It needs at least two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return q, false
	}
	s := sorted(xs)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure the metric bounds in BENCHMARK.json are derived
// from. It is 0 when fewer than two values or a zero median leave it
// undefined.
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok {
		return 0
	}
	return ratio(q[2]-q[0], q[1])
}

// ratio returns num/den, or 0 when den is 0, so a counter that saw no
// traffic reads as an empty share rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// timeSetups runs setup n times, collecting garbage before each, and
// returns the median wall time in seconds. Only the last set-up's result
// survives, so the workload measures the state the final call built.
func timeSetups(n int, setup func() error) (float64, error) {
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	fmt.Printf("set-up: %d times, setup_s %.4g\n", n, walls)
	return median(walls), nil
}

// setupRepeats is how many times a run sets its workload up: many times
// when measuring, because single set-ups of these allocation-heavy states
// vary up to twofold within one run, and once when tracing.
func setupRepeats(tr *tracer) int {
	if tr != nil {
		return 1
	}
	return 21
}

// setUp builds a workload's state with build: in a measured run
// setupRepeats times for the setup_s median, then — after release drops the state the
// run holds — once more to measure the heap the state retains; in a traced
// run once. It returns the median set-up seconds (0 when traced) and the
// retained bytes.
func setUp(tr *tracer, build func() error, release func()) (setup, retained float64, err error) {
	if tr == nil {
		if setup, err = timeSetups(setupRepeats(tr), build); err != nil {
			return 0, 0, err
		}
		release()
	}
	retained, err = retainedBytes(build)
	return setup, retained, err
}

// summarize prints a workload's per-repetition wall times and their spread.
func summarize(workload string, walls []float64) {
	fmt.Printf("%s: %d repetitions, wall_s %.4g, spread %.3f\n", workload, len(walls), walls, spread(walls))
}

// repeat calls rep until budget is spent, and at least atLeast times; rep
// returns the wall time of the part it measured. A repetition is not
// started when the previous one's duration says it would end past the
// budget, so a run ends within about one repetition of its budget.
func repeat(budget time.Duration, atLeast int, rep func() (time.Duration, error)) error {
	start := time.Now()
	for i := 1; ; i++ {
		runtime.GC()
		d, err := rep()
		if err != nil {
			return err
		}
		if i >= atLeast && time.Since(start)+d > budget {
			return nil
		}
	}
}

// retainedBytes reports the heap that build leaves reachable: the
// collected-heap size after it minus the size before it.
func retainedBytes(build func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := build(); err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc), nil
}
