// Package cut finds sparse cuts: it turns a graph into the (Partition,
// designated-cut-edge) pair that Algorithm A consumes when the user does
// not already know where the bottleneck is.
//
// The detector is classic spectral partitioning: compute the Fiedler vector
// (eigenvector of λ2 of the Laplacian), then run a sweep cut over the
// nodes sorted by Fiedler score and keep the prefix with minimum
// conductance. The package tests check it against an exhaustive
// minimum-conductance search on small graphs.
//
// Key functions: Detect, SpectralBisection, DesignatedCutEdge. Used by Algorithm A's auto-detection (DESIGN.md §3) and the E10 discovery checks (§9).
package cut

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sparsecut/internal/graph"
	"sparsecut/internal/spectral"
)

// ErrNoCut is returned when no valid two-sided partition exists (fewer than
// two nodes).
var ErrNoCut = errors.New("cut: graph has no two-sided partition")

// SweepCut sorts nodes by score and returns the prefix partition with the
// minimum conductance among all n-1 prefixes. Ties are broken toward the
// more balanced cut. It returns ErrNoCut for graphs with fewer than two
// nodes and an error when len(score) mismatches.
func SweepCut(g *graph.Graph, score []float64) (*graph.Partition, error) {
	n := g.NumNodes()
	if n < 2 {
		return nil, ErrNoCut
	}
	if len(score) != n {
		return nil, fmt.Errorf("cut: %d scores for %d nodes", len(score), n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if score[order[a]] != score[order[b]] {
			return score[order[a]] < score[order[b]]
		}
		return order[a] < order[b]
	})

	// Incremental conductance over the sweep: maintain cut size and the
	// volume of the growing prefix set.
	inPrefix := make([]bool, n)
	totalVol := 2 * g.NumEdges()
	prefixVol := 0
	cutSize := 0
	bestPhi := math.Inf(1)
	bestK := -1
	bestBalance := -1
	for k := 0; k < n-1; k++ {
		u := graph.NodeID(order[k])
		inPrefix[u] = true
		prefixVol += g.Degree(u)
		for _, he := range g.Neighbors(u) {
			if inPrefix[he.Peer] {
				cutSize-- // edge no longer crosses
			} else {
				cutSize++
			}
		}
		minVol := prefixVol
		if other := totalVol - prefixVol; other < minVol {
			minVol = other
		}
		if minVol == 0 {
			continue
		}
		phi := float64(cutSize) / float64(minVol)
		balance := k + 1
		if n-k-1 < balance {
			balance = n - k - 1
		}
		if phi < bestPhi-1e-15 || (math.Abs(phi-bestPhi) <= 1e-15 && balance > bestBalance) {
			bestPhi = phi
			bestK = k
			bestBalance = balance
		}
	}
	if bestK < 0 {
		return nil, ErrNoCut
	}
	side := make([]graph.Side, n)
	for i := range side {
		side[i] = graph.Side2
	}
	for k := 0; k <= bestK; k++ {
		side[order[k]] = graph.Side1
	}
	return graph.NewPartition(g, side)
}

// SpectralBisection finds a sparse cut by sweeping the Fiedler vector.
// It requires a connected graph with at least two nodes.
func SpectralBisection(g *graph.Graph, opts spectral.Options) (*graph.Partition, error) {
	if err := graph.RequireConnected(g); err != nil {
		return nil, err
	}
	fiedler, err := spectral.FiedlerVector(g, opts)
	if err != nil {
		return nil, fmt.Errorf("cut: computing Fiedler vector: %w", err)
	}
	return SweepCut(g, fiedler)
}

// DesignatedCutEdge returns the paper's fixed edge ec for a partition: the
// lowest-ID edge crossing the cut. It returns an error for an empty cut.
func DesignatedCutEdge(p *graph.Partition) (graph.EdgeID, error) {
	cutEdges := p.CutEdges()
	if len(cutEdges) == 0 {
		return 0, errors.New("cut: partition has no cut edges")
	}
	return cutEdges[0], nil
}

// Detect runs the full pipeline Algorithm A needs when no planted partition
// is supplied: spectral bisection, then the designated cut edge.
func Detect(g *graph.Graph, opts spectral.Options) (*graph.Partition, graph.EdgeID, error) {
	p, err := SpectralBisection(g, opts)
	if err != nil {
		return nil, 0, err
	}
	ec, err := DesignatedCutEdge(p)
	if err != nil {
		return nil, 0, err
	}
	return p, ec, nil
}
