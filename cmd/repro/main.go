// Command repro generates the repository's reproduction report: it runs
// the E1–E14 suite as declarative scenario grids through the deterministic
// sweep engine, compares every measured averaging time against the paper's
// predicted bounds (internal/spectral), and writes REPRODUCTION.md plus a
// machine-readable REPRODUCTION.json.
//
// The output is a pure function of (mode, seed): reruns byte-match, which
// CI verifies. Exit status: 0 on success, 1 on runtime errors, 2 when the
// generated report contains FAIL rows or failed checks (disable with
// -strict=false).
//
// Output defaults depend on the invocation, so casual runs never clobber
// the committed full-mode artifacts: -full writes REPRODUCTION.md +
// REPRODUCTION.json (the committed names), quick mode writes
// REPRODUCTION-quick.md + REPRODUCTION-quick.json, and -run subsets print
// to stdout. Explicit -out/-json always win.
//
// Usage:
//
//	repro -quick                    # CI-sized budgets (the default)
//	repro -full                     # regenerate the committed numbers
//	repro -run E4,E10               # a subset, to stdout
//	repro -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sparsecut/internal/report"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "CI-sized budgets, 1-CPU friendly (default unless -full)")
		full    = flag.Bool("full", false, "full budgets; regenerates the committed REPRODUCTION.md numbers")
		seed    = flag.Uint64("seed", 1, "root seed; the whole document derives from it")
		workers = flag.Int("workers", 0, "worker-pool size for sweeps and for concurrent entries (0 = GOMAXPROCS); never affects results")
		run     = flag.String("run", "", "comma-separated experiment subset (e.g. E4,E10); empty = all")
		out     = flag.String("out", "", "Markdown output path ('-' = stdout; default: REPRODUCTION.md for -full, REPRODUCTION-quick.md for quick, stdout for -run subsets)")
		jsonOut = flag.String("json", "", "JSON output path ('-' = stdout; default mirrors -out, none for -run subsets; 'none' = skip)")
		strict  = flag.Bool("strict", true, "exit 2 when the report contains FAIL verdicts")
		list    = flag.Bool("list", false, "list the registered experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range report.Entries() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}
	if *quick && *full {
		fatal(fmt.Errorf("-quick and -full are mutually exclusive"))
	}
	// Quick is the default mode; both `-full` and an explicit
	// `-quick=false` select full budgets.
	quickExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "quick" {
			quickExplicit = true
		}
	})
	isQuick := !*full && !(quickExplicit && !*quick)
	p := report.Params{Quick: isQuick, Seed: *seed, Workers: *workers}

	var ids []string
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	// Mode-dependent output defaults: only -full writes the committed
	// artifact names; quick and subset runs can never clobber them by
	// accident.
	mdPath, jsonPath := *out, *jsonOut
	if mdPath == "" {
		switch {
		case len(ids) > 0:
			mdPath = "-"
		case !isQuick:
			mdPath = "REPRODUCTION.md"
		default:
			mdPath = "REPRODUCTION-quick.md"
		}
	}
	if jsonPath == "" {
		switch {
		case len(ids) > 0:
			jsonPath = "none"
		case !isQuick:
			jsonPath = "REPRODUCTION.json"
		default:
			jsonPath = "REPRODUCTION-quick.json"
		}
	}

	doc, err := report.GenerateSubset(ids, p)
	if err != nil {
		fatal(err)
	}
	if err := writeTo(mdPath, doc.WriteMarkdown); err != nil {
		fatal(err)
	}
	if jsonPath != "none" {
		if err := writeTo(jsonPath, doc.WriteJSON); err != nil {
			fatal(err)
		}
	}

	failures := doc.Failures()
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "repro: FAIL:", f)
	}
	if mdPath != "-" {
		pass, fail, cens := 0, 0, 0
		for _, s := range doc.Sections {
			pass += s.Verdicts.Pass
			fail += s.Verdicts.Fail
			cens += s.Verdicts.Cens
			for _, c := range s.Checks {
				if c.Pass {
					pass++
				} else {
					fail++
				}
			}
		}
		fmt.Fprintf(os.Stderr, "repro: %s mode, seed %d: %d experiments, %d PASS, %d FAIL, %d CENS -> %s\n",
			doc.Mode, doc.Seed, len(doc.Sections), pass, fail, cens, mdPath)
	}
	if *strict && len(failures) > 0 {
		os.Exit(2)
	}
}

// writeTo writes via render to path, atomically enough for CI use ('-'
// means stdout).
func writeTo(path string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
