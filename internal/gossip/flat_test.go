package gossip

import (
	"math"
	"sort"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TestFlatStateMatchesState drives FlatState (one-exchange TickTile
// chunks inside a tile, Exchange across tiles) and State through the same
// exchange sequence: the stored values must stay bit-identical (both
// replay the same fused offset arithmetic) and the moments must agree to
// float tolerance across tile layouts.
func TestFlatStateMatchesState(t *testing.T) {
	const n = 40
	r := rng.New(5)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = r.Float64()*10 - 3
	}
	layouts := [][][2]int32{
		{{0, n}},
		{{0, 20}, {20, n}},
		{{0, 7}, {7, 13}, {13, 29}, {29, n}},
	}
	for li, bounds := range layouts {
		ref := NewState(x0)
		fs, err := NewFlatState(x0, bounds)
		if err != nil {
			t.Fatalf("layout %d: %v", li, err)
		}
		sr := rng.New(99)
		for step := 0; step < 5000; step++ {
			i := sr.Intn(n)
			j := sr.Intn(n - 1)
			if j >= i {
				j++
			}
			averageRef(ref, i, j)
			u, v := int32(i), int32(j)
			if ti, tj := tileOf(bounds, u), tileOf(bounds, v); ti == tj {
				fs.TickTile(ti, []int32{u}, []int32{v})
			} else {
				fs.Exchange(u, v)
			}
			if step%97 == 0 {
				for k := 0; k < n; k++ {
					if math.Float64bits(ref.Get(k)) != math.Float64bits(fs.Value(k)) {
						t.Fatalf("layout %d step %d: value %d diverged: %v vs %v",
							li, step, k, ref.Get(k), fs.Value(k))
					}
				}
				if dv := math.Abs(ref.Variance() - fs.Variance()); dv > 1e-12 {
					t.Fatalf("layout %d step %d: variance diverged by %v", li, step, dv)
				}
				if dm := math.Abs(ref.Mean() - fs.Mean()); dm > 1e-12 {
					t.Fatalf("layout %d step %d: mean diverged by %v", li, step, dm)
				}
			}
		}
	}
}

// tileOf locates the tile of bounds containing node u.
func tileOf(bounds [][2]int32, u int32) int {
	return sort.Search(len(bounds), func(i int) bool { return bounds[i][1] > u })
}

// TestFlatStateValidation rejects malformed tile layouts.
func TestFlatStateValidation(t *testing.T) {
	x0 := []float64{1, 2, 3, 4}
	bad := [][][2]int32{
		{},
		{{0, 2}},                 // does not cover
		{{0, 2}, {3, 4}},         // gap
		{{0, 3}, {2, 4}},         // overlap
		{{0, 2}, {2, 2}, {2, 4}}, // empty tile
	}
	for i, bounds := range bad {
		if _, err := NewFlatState(x0, bounds); err == nil {
			t.Errorf("layout %d: expected error", i)
		}
	}
	if _, err := NewFlatState(nil, [][2]int32{{0, 1}}); err == nil {
		t.Error("empty state: expected error")
	}
}

// TestCutIndicatorPrefixMatches checks the prefix variant against the
// partition-based CutIndicator values on a prefix split.
func TestCutIndicatorPrefixMatches(t *testing.T) {
	got := CutIndicatorPrefix(10, 4)
	for u, v := range got {
		var want float64
		if u < 4 {
			want = 1
		} else {
			want = -4.0 / 6.0
		}
		if v != want {
			t.Fatalf("x[%d] = %v, want %v", u, v, want)
		}
	}
	// Mean is zero by construction.
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("prefix indicator sum = %v, want 0", sum)
	}
}

// flatFixture builds a FlatState over a three-clique ring of unequal tile
// sizes with values far from zero, plus the ring's tiling for drawing
// chunks.
func flatFixture(t *testing.T, seed uint64) (*graph.Tiling, *FlatState) {
	t.Helper()
	ig, err := graph.ImplicitRingOfCliques(3, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	til := ig.Tiling()
	r := rng.New(seed)
	x0 := make([]float64, ig.NumNodes())
	for i := range x0 {
		x0[i] = 1e3 + 10*r.Float64()
	}
	fs, err := NewFlatState(x0, til.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	return til, fs
}

// exactTileMoments is Mean and Variance computed from the values alone:
// each tile's Σy and Σy² accumulated in node order, then combined in tile
// order.
func exactTileMoments(s *FlatState) (mean, variance float64) {
	var sum, sumSq float64
	for ti := range s.lo {
		var ts, tss float64
		for _, y := range s.y[s.lo[ti]:s.hi[ti]] {
			ts += y
			tss += y * y
		}
		sum += ts
		sumSq += tss
	}
	n := float64(len(s.y))
	m := sum / n
	return m + s.off, max(sumSq/n-m*m, 0)
}

// TestFlatStateLazyMomentsExact checks that Mean and Variance are exact
// for the values: after TickTile chunks on every tile (with boundary
// exchanges between them), and after one boundary exchange straight
// after a Variance read, both must equal exactTileMoments bit for bit.
func TestFlatStateLazyMomentsExact(t *testing.T) {
	til, fs := flatFixture(t, 5)
	r := rng.New(6)
	us, vs := make([]int32, 64), make([]int32, 64)
	check := func(what string, round int) {
		t.Helper()
		wantMean, wantVar := exactTileMoments(fs)
		if got := fs.Variance(); math.Float64bits(got) != math.Float64bits(wantVar) {
			t.Fatalf("round %d, %s: Variance %v, exact %v", round, what, got, wantVar)
		}
		if got := fs.Mean(); math.Float64bits(got) != math.Float64bits(wantMean) {
			t.Fatalf("round %d, %s: Mean %v, exact %v", round, what, got, wantMean)
		}
	}
	for round := 0; round < 20; round++ {
		for ti := range til.Tiles {
			til.Tiles[ti].Fill(r, us, vs)
			fs.TickTile(ti, us, vs)
			be := til.Boundary[r.Intn(len(til.Boundary))]
			fs.Exchange(int32(be.U), int32(be.V))
		}
		check("after ticks", round)
		be := til.Boundary[r.Intn(len(til.Boundary))]
		fs.Exchange(int32(be.U), int32(be.V))
		check("after a read and one exchange", round)
		til.Tiles[round%len(til.Tiles)].Fill(r, us, vs)
		fs.TickTile(round%len(til.Tiles), us, vs)
		check("after one tick", round)
	}
}
