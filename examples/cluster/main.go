// Cluster: run Algorithm A as a *real* decentralized protocol — every
// node driven by its private Poisson clock, coordinating through explicit
// messages (try-lock exchanges with leases and grant retransmission)
// instead of a shared-memory simulator. The nodes are spread over up to
// four shard event loops; messages between loops cross in-process shard
// mailboxes.
//
// Pass -drop 0.05 to inject 5% i.i.d. message loss and watch the protocol
// degrade gracefully (aborted exchanges are skipped ticks, not
// corruption).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"sparsecut"
)

func main() {
	var (
		n        = flag.Int("n", 16, "total nodes (dumbbell of two n/2-cliques)")
		duration = flag.Float64("t", 40, "simulated duration in time units")
		drop     = flag.Float64("drop", 0, "message loss probability in [0,1)")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	g, part, err := sparsecut.NewDumbbell(*n/2, *n-*n/2, 1)
	if err != nil {
		log.Fatal(err)
	}
	x0 := sparsecut.WorstCaseInit(part)
	// Swap every 4th tick of the cut edge — roughly the paper's
	// K = C·(Tvan1+Tvan2)·ln n for dumbbells of this size.
	rule, err := sparsecut.NewSparseCutExchange(part, part.CutEdges()[0], 4, sparsecut.ExactSwapWeight(part))
	if err != nil {
		log.Fatal(err)
	}

	if *drop > 0 {
		fmt.Printf("fault injection: dropping %.0f%% of messages\n", *drop*100)
	}

	const scale = 8 * time.Millisecond
	cl, err := sparsecut.NewShardRuntime(g, x0, rule, sparsecut.ShardRuntimeConfig{
		ClusterConfig: sparsecut.ClusterConfig{
			TimeScale: scale,
			Seed:      *seed,
			Drop:      *drop,
		},
		Shards: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("graph:     %s\n", g)
	fmt.Printf("rule:      %s\n", rule.Name())
	fmt.Printf("running:   %d nodes (private Poisson clocks) on %d shard loops for t=%g (~%v wall)...\n",
		g.NumNodes(), cl.Shards(), *duration, time.Duration(*duration*float64(scale)).Round(time.Millisecond))
	start := time.Now()
	if err := cl.Run(context.Background(), *duration); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("exchanges: %d committed, %d aborted\n", cl.Exchanges(), cl.Aborted())
	fmt.Printf("mean:      %.6g (started at 0)\n", cl.Mean())
	fmt.Printf("variance:  %.6g (started at 1)\n", cl.Variance())
}
