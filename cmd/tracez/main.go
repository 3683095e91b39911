// Command tracez renders flight-recorder dumps — the causal per-exchange
// captures written by distrun -flight and mcheck -flight — as span trees
// and latency summaries.
//
// Usage:
//
//	tracez run.flight.json                     # one line per exchange span
//	tracez -view timeline run.flight.json      # full event tree per span
//	tracez -view phases run.flight.json        # per-phase latency table (p50/p95/p99)
//	tracez -view aborts run.flight.json        # abort census by reason and pair
//	tracez -view critical run.flight.json      # slowest committed exchange, segment by segment
//	tracez -outcome aborted -node 3 run.flight.json
//	tracez -view spans - < run.flight.json
//
// Dumps are JSON (flight.WriteFile). An unknown -view or -outcome exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"sparsecut/internal/flight"
)

func main() {
	var (
		view    = flag.String("view", "spans", "rendering: spans | timeline | phases | aborts | critical")
		node    = flag.Int("node", flight.NoNode, "keep only spans touching this node (responder or initiator)")
		init_   = flag.Int("init", flight.NoNode, "keep only spans initiated by this node")
		seq     = flag.Uint64("seq", 0, "keep only the span with this initiator sequence number")
		outcome = flag.String("outcome", "", "keep only spans with this outcome: committed | aborted | unresolved")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tracez [flags] <dump-file | ->\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	d, err := readDump(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	f := flight.Filter{Node: *node, Init: *init_, Seq: *seq, Outcome: *outcome}
	if err := flight.Render(os.Stdout, flight.Stitch(d), *view, f); err != nil {
		fatal(err)
	}
}

// readDump loads a dump from a file, or from stdin when path is "-".
func readDump(path string) (*flight.Dump, error) {
	if path == "-" {
		return flight.ReadDump(os.Stdin)
	}
	return flight.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracez:", err)
	os.Exit(1)
}
