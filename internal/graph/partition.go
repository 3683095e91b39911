package graph

// Partition support: two-way vertex partitions with cut-edge and
// conductance accounting, as used by Algorithm A and the cut detector.

import (
	"errors"
	"fmt"
	"math"
)

// Side labels which block of a two-way partition a node belongs to.
type Side uint8

const (
	// Side1 is the block the paper calls V1 (by convention the smaller one,
	// though Partition does not enforce that).
	Side1 Side = iota
	// Side2 is the block the paper calls V2.
	Side2
)

// String returns "V1" or "V2".
func (s Side) String() string {
	if s == Side1 {
		return "V1"
	}
	return "V2"
}

// Partition is a two-way vertex partition of a specific graph, with the cut
// edges precomputed. It is immutable after construction.
type Partition struct {
	g     *Graph
	side  []Side
	cut   []EdgeID // edges with endpoints on both sides, ascending
	size1 int
	vol1  int // sum of degrees on side 1
	vol2  int
}

// NewPartition builds a Partition of g from a per-node side assignment.
// Both sides must be non-empty and len(side) must equal g.NumNodes().
func NewPartition(g *Graph, side []Side) (*Partition, error) {
	if len(side) != g.NumNodes() {
		return nil, fmt.Errorf("graph: side assignment has %d entries for %d nodes", len(side), g.NumNodes())
	}
	p := &Partition{g: g, side: append([]Side(nil), side...)}
	for u, s := range side {
		switch s {
		case Side1:
			p.size1++
			p.vol1 += g.Degree(NodeID(u))
		case Side2:
			p.vol2 += g.Degree(NodeID(u))
		default:
			return nil, fmt.Errorf("graph: invalid side %d for node %d", s, u)
		}
	}
	if p.size1 == 0 || p.size1 == g.NumNodes() {
		return nil, errors.New("graph: partition must have two non-empty sides")
	}
	for id, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			p.cut = append(p.cut, EdgeID(id))
		}
	}
	return p, nil
}

// PartitionByPrefix assigns nodes 0..n1-1 to Side1 and the rest to Side2 —
// the labelling convention the paper uses. It returns an error unless
// 0 < n1 < NumNodes.
func PartitionByPrefix(g *Graph, n1 int) (*Partition, error) {
	if n1 <= 0 || n1 >= g.NumNodes() {
		return nil, fmt.Errorf("graph: prefix size %d outside (0,%d)", n1, g.NumNodes())
	}
	side := make([]Side, g.NumNodes())
	for u := n1; u < g.NumNodes(); u++ {
		side[u] = Side2
	}
	return NewPartition(g, side)
}

// Graph returns the partitioned graph.
func (p *Partition) Graph() *Graph { return p.g }

// SideOf returns the side of node u.
func (p *Partition) SideOf(u NodeID) Side { return p.side[u] }

// Sides returns the full side assignment. Callers must not modify it.
func (p *Partition) Sides() []Side { return p.side }

// Size1 returns |V1|; Size2 returns |V2|.
func (p *Partition) Size1() int { return p.size1 }

// Size2 returns the number of nodes on Side2.
func (p *Partition) Size2() int { return p.g.NumNodes() - p.size1 }

// MinSide returns min(|V1|, |V2|), the quantity in Theorem 1.
func (p *Partition) MinSide() int {
	if s2 := p.Size2(); s2 < p.size1 {
		return s2
	}
	return p.size1
}

// CutEdges returns the IDs of edges crossing the partition, ascending.
// Callers must not modify the returned slice.
func (p *Partition) CutEdges() []EdgeID { return p.cut }

// CutSize returns |E12|.
func (p *Partition) CutSize() int { return len(p.cut) }

// IsCutEdge reports whether edge id crosses the partition.
func (p *Partition) IsCutEdge(id EdgeID) bool {
	e := p.g.Edge(id)
	return p.side[e.U] != p.side[e.V]
}

// Conductance returns |E12| / min(vol(V1), vol(V2)), the standard notion of
// cut sparsity. It returns +Inf when the smaller volume is zero (isolated
// side), which cannot happen on connected graphs.
func (p *Partition) Conductance() float64 {
	minVol := p.vol1
	if p.vol2 < minVol {
		minVol = p.vol2
	}
	if minVol == 0 {
		return math.Inf(1)
	}
	return float64(len(p.cut)) / float64(minVol)
}

// TheoremOneBound returns min(|V1|,|V2|) / |E12|, the paper's Theorem 1
// lower-bound expression (up to the hidden constant). It returns +Inf when
// the cut is empty.
func (p *Partition) TheoremOneBound() float64 {
	if len(p.cut) == 0 {
		return math.Inf(1)
	}
	return float64(p.MinSide()) / float64(len(p.cut))
}

// Subgraph extracts the induced subgraph on the requested side. The mapping
// slice translates new node IDs back to IDs in the parent graph.
func (p *Partition) Subgraph(s Side) (sub *Graph, toParent []NodeID) {
	toSub := make([]NodeID, p.g.NumNodes())
	for i := range toSub {
		toSub[i] = -1
	}
	for u := 0; u < p.g.NumNodes(); u++ {
		if p.side[u] == s {
			toSub[u] = NodeID(len(toParent))
			toParent = append(toParent, NodeID(u))
		}
	}
	b := NewBuilder(len(toParent)).SetName(fmt.Sprintf("%s[%s]", p.g.Name(), s))
	for _, e := range p.g.Edges() {
		if p.side[e.U] == s && p.side[e.V] == s {
			b.AddEdge(toSub[e.U], toSub[e.V])
		}
	}
	return b.MustBuild(), toParent
}

// String describes the partition compactly.
func (p *Partition) String() string {
	return fmt.Sprintf("partition(|V1|=%d, |V2|=%d, |E12|=%d, phi=%.4g)",
		p.size1, p.Size2(), len(p.cut), p.Conductance())
}

// sidesInternallyConnected reports whether each side's induced subgraph is
// connected — the paper's standing assumption about G1 and G2.
func sidesInternallyConnected(p *Partition) bool {
	for _, s := range []Side{Side1, Side2} {
		sub, _ := p.Subgraph(s)
		if !IsConnected(sub) {
			return false
		}
	}
	return true
}
