// Command graphgen generates any graph family in the scenario registry,
// reports its sparse-cut statistics (conductance, λ2, Theorem 1 bound)
// and optionally exports it as Graphviz DOT. -h lists the families with
// their parameters.
//
// Usage:
//
//	graphgen -graph dumbbell -n 64 -cut 1
//	graphgen -graph sensor   -n 120 -cut 2 -dot > field.dot
//	graphgen -graph planted  -n 64 -pin 0.3 -dot > planted.dot
//	graphgen -graph ringofcliques -n 48 -blocks 6
package main

import (
	"flag"
	"fmt"
	"os"

	"sparsecut"
	"sparsecut/internal/scenario"
)

func main() {
	gs := scenario.GraphFlags(flag.CommandLine, "dumbbell", 64)
	var (
		seed = flag.Uint64("seed", 1, "random seed")
		dot  = flag.Bool("dot", false, "write Graphviz DOT to stdout")
	)
	flag.Parse()

	spec := scenario.Spec{
		Graph: *gs,
		Init:  "spike", // skip worst-case cut detection: only the graph is needed
		Seed:  *seed,
	}
	res, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}
	g, part := res.Graph, res.Partition

	if *dot {
		if err := sparsecut.WriteDOT(os.Stdout, g, part); err != nil {
			fatal(err)
		}
		return
	}
	lam2, err := sparsecut.AlgebraicConnectivity(g)
	if err != nil {
		fatal(err)
	}
	detected, err := sparsecut.FindSparseCut(g)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph:               %s\n", g)
	if part != nil {
		fmt.Printf("planted partition:   %s\n", part)
	} else {
		fmt.Printf("planted partition:   (none)\n")
	}
	fmt.Printf("detected partition:  %s\n", detected)
	fmt.Printf("lambda2:             %.6g (Tvan bound 6/lambda2 = %.4g)\n", lam2, 6/lam2)
	if part != nil {
		fmt.Printf("theorem 1 bound:     min(n1,n2)/|E12| = %.4g\n", part.TheoremOneBound())
	} else {
		fmt.Printf("theorem 1 bound:     min(n1,n2)/|E12| = %.4g (detected cut)\n", detected.TheoremOneBound())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
