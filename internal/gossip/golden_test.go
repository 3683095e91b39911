package gossip

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TestEnsembleGoldenDigest pins the replica-batched chunk paths across a
// moment resync: 48,000 events per replica in ragged 300-event chunks.
// Every seventh of the first 40 chunks runs untracked, so the next tracked
// chunk must first make the lazy moments exact. The 125 tracked chunks
// after the last of them make 75,000 point updates, past the 2^16 resync
// interval, which falls inside a chunk. The FNV-64a digest covers
// each tracked chunk's lastIdx and endVar bits, the final values and the
// final variance of both replicas. The constants were recorded before the
// ensembles were rebuilt on State; a resync moved to event granularity, or
// a tracked chunk that starts from stale moments, changes them.
func TestEnsembleGoldenDigest(t *testing.T) {
	g := graph.Cycle(64) // slow mixing: the variance stays far above the float floor
	x0 := GaussianRandom(rng.New(17), g.NumNodes())
	const (
		replicas = 2
		events   = 48000
		chunk    = 300
	)
	cases := []struct {
		name string
		want uint64
		make func() (*Ensemble, error)
	}{
		{"vanilla", 0xdd3b2b4a5f3ba896, func() (*Ensemble, error) { return NewVanillaEnsemble(g, x0, replicas) }},
		{"convex", 0xfe8a2b03a0d78f1d, func() (*Ensemble, error) { return NewConvexEnsemble(g, x0, 0.73, replicas) }},
		{"pushsum", 0x5d961ef3cb9edabd, func() (*Ensemble, error) {
			return NewPushSumEnsemble(g, x0, []*rng.RNG{rng.New(21), rng.New(22)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ens, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			level := ens.ReplicaVariance(0) * math.Exp(-2)
			h := fnv.New64a()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			picks := [replicas][]graph.EdgeID{randomPicks(5, g, events), randomPicks(6, g, events)}
			exceeded, quiet := false, false
			for k, lo := 0, 0; lo < events; k, lo = k+1, lo+chunk {
				for rep := range replicas {
					c := picks[rep][lo:min(lo+chunk, events)]
					if k < 40 && k%7 == 6 {
						ens.runs[rep].TickEdges(c)
						continue
					}
					idx, endVar := ens.TickChunkTracked(rep, c, level)
					exceeded = exceeded || idx >= 0
					quiet = quiet || idx < 0
					put(uint64(int64(idx)))
					put(math.Float64bits(endVar))
				}
			}
			if !exceeded || !quiet {
				t.Fatalf("chunks exceeded %v, quiet %v; want both", exceeded, quiet)
			}
			for rep := range replicas {
				for _, v := range ens.Values(rep) {
					put(math.Float64bits(v))
				}
				put(math.Float64bits(ens.ReplicaVariance(rep)))
			}
			if got := h.Sum64(); got != tc.want {
				t.Errorf("digest %#x, want %#x", got, tc.want)
			}
		})
	}
}
