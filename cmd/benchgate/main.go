// Command benchgate is the performance regression gate. It compares the
// checkout it runs in, the head, with a checkout of the parent commit on
// the same host. Run it from the head's repository root:
//
//	benchgate PARENT_CHECKOUT
//
// For every workload of BENCHMARK.json it runs
//
//	bash perfbench/run.sh --workload W --seed i --seconds 3 --trace 0
//
// in both checkouts for seeds 1–10, one pair per seed, alternating which
// side runs first. An end-to-end metric fails when the head is worse in at
// least 9 of the 10 pairs and its median is worse than the parent's by
// more than the parent's interquartile range. A workload fails when any
// run reports correct:false or a head run fails more operations than the
// parent's run of its pair. One traced run per side (--trace 1) then
// checks every *.bytes_per_node metric: the head fails above 1.10x of the
// parent.
//
// Progress goes to standard error and the verdict table to standard
// output. The exit status is 0 when every row passes, 1 when one fails,
// and 2 when the gate cannot run.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"sparsecut/internal/table"
)

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate PARENT_CHECKOUT")
		os.Exit(2)
	}
	ok, err := gate(os.Args[1], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// gate runs every pair and the traced runs, writes the verdict table to
// out and reports whether every row passed.
func gate(parentDir string, out io.Writer) (bool, error) {
	parentDir, err := filepath.Abs(parentDir)
	if err != nil {
		return false, err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"head", "."}}
	for _, side := range sides {
		if _, err := os.Stat(filepath.Join(side.dir, "perfbench", "run.sh")); err != nil {
			return false, err
		}
	}

	var rows []row
	for _, w := range bm.Workloads {
		var runs [2][]result
		for i := 0; i < pairs; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs run the parent first
				r, err := perfbench(sides[side].name, sides[side].dir, w.Name, i+1, 0)
				if err != nil {
					return false, err
				}
				runs[side] = append(runs[side], r)
			}
		}
		wrows, err := judgeWorkload(w.Name, bm.EndToEnd, runs[0], runs[1])
		if err != nil {
			return false, err
		}
		rows = append(rows, wrows...)
	}

	var bytesDefs []metricDef
	for _, d := range bm.PerLayer {
		if strings.HasSuffix(d.Name, ".bytes_per_node") {
			bytesDefs = append(bytesDefs, d)
		}
	}
	// A traced run covers every workload; --workload only names its span
	// file.
	var traced [2]result
	for i, side := range sides {
		if traced[i], err = perfbench(side.name, side.dir, bm.Workloads[0].Name, 1, 1); err != nil {
			return false, err
		}
	}
	brows, err := judgeBytes(bytesDefs, traced[0], traced[1])
	if err != nil {
		return false, err
	}
	rows = append(rows, brows...)

	t := table.New("", "workload", "check", "parent", "head", "detail", "verdict")
	ok := true
	for _, r := range rows {
		verdict := "ok"
		if !r.ok {
			verdict, ok = "FAIL", false
		}
		t.AddRow(r.workload, r.check, r.parent, r.head, r.detail, verdict)
	}
	return ok, t.Render(out)
}

// perfbench runs the benchmark once in the checkout at dir, the side
// named side, and returns the result on the last line of its output.
// perfbench exits non-zero after a failed correctness check but still
// prints its result, so only a missing result is an error.
func perfbench(side, dir, workload string, seed, trace int) (result, error) {
	fmt.Fprintf(os.Stderr, "benchgate: %s %s seed %d trace %d\n", side, workload, seed, trace)
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", "3", "--trace", strconv.Itoa(trace))
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s %s seed %d printed no result (%v)", side, workload, seed, runErr)
	}
	return r, nil
}
