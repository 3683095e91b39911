package gossip

import (
	"math"
	"testing"

	"sparsecut/internal/graph"
	"sparsecut/internal/rng"
)

// TestFlatStateMatchesState drives FlatState's tracked form and State
// through the same exchange sequence: the stored values must stay
// bit-identical (both replay the same fused offset arithmetic) and the
// incremental moments must agree to float tolerance across tile layouts.
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
			ti, tj := fs.tileOf(u), fs.tileOf(v)
			if ti == tj {
				fs.TickTileTracked(ti, []int32{u}, []int32{v})
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

// TestFlatStateResync pushes one tile past resyncInterval tracked updates
// and checks the moments stay exact.
func TestFlatStateResync(t *testing.T) {
	x0 := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	fs, err := NewFlatState(x0, [][2]int32{{0, 4}, {4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	us := make([]int32, 256)
	vs := make([]int32, 256)
	r := rng.New(11)
	for round := 0; round < (resyncInterval/256)+4; round++ {
		for k := range us {
			i := r.Intn(4)
			j := r.Intn(3)
			if j >= i {
				j++
			}
			us[k], vs[k] = int32(i), int32(j)
		}
		fs.TickTileTracked(0, us, vs)
	}
	// Exact recomputation from values.
	var sum, sumSq float64
	for i := 0; i < fs.N(); i++ {
		y := fs.Value(i)
		sum += y
		sumSq += y * y
	}
	n := float64(fs.N())
	m := sum / n
	want := sumSq/n - m*m
	if want < 0 {
		want = 0
	}
	if d := math.Abs(fs.Variance() - want); d > 1e-12 {
		t.Fatalf("variance drifted by %v after resync-heavy run", d)
	}
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

// TestFlatStateResyncPeriod pins when a tile's tracked moments are
// re-accumulated: after resyncInterval updates for tiles of up to
// resyncInterval nodes, after the tile's own node count for larger ones,
// whether the crossing update comes through TickTileTracked or Exchange. Right after each resync the
// moments must equal a fresh re-accumulation bit for bit.
func TestFlatStateResyncPeriod(t *testing.T) {
	cases := []struct {
		size   int32
		period int64
	}{
		{4, 1 << 16},
		{1 << 16, 1 << 16},
		{1<<17 + 3, 1<<17 + 3},
	}
	const other = 4 // a second tile that must never be touched
	for _, c := range cases {
		r := rng.New(uint64(c.size))
		x0 := make([]float64, c.size+other)
		for i := range x0 {
			x0[i] = r.Float64()*10 - 3
		}
		fs, err := NewFlatState(x0, [][2]int32{{0, c.size}, {c.size, c.size + other}})
		if err != nil {
			t.Fatal(err)
		}
		us, vs := make([]int32, 1), make([]int32, 1)
		// The first period is crossed by TickTileTracked, the second by
		// Exchange.
		for _, viaExchange := range []bool{false, true} {
			for k := int64(1); k <= c.period; k++ {
				i := r.Intn(int(c.size))
				j := r.Intn(int(c.size) - 1)
				if j >= i {
					j++
				}
				if viaExchange && k == c.period {
					fs.Exchange(int32(i), int32(j))
				} else {
					us[0], vs[0] = int32(i), int32(j)
					fs.TickTileTracked(0, us, vs)
				}
				if want := k % c.period; fs.ops[0] != want {
					t.Fatalf("size %d (exchange=%v): ops %d after %d updates, want %d",
						c.size, viaExchange, fs.ops[0], k, want)
				}
			}
			sum, sumSq := fs.sum[0], fs.sumSq[0]
			fs.resyncTile(0)
			if math.Float64bits(sum) != math.Float64bits(fs.sum[0]) ||
				math.Float64bits(sumSq) != math.Float64bits(fs.sumSq[0]) {
				t.Fatalf("size %d (exchange=%v): moments (%v, %v) after resync, fresh (%v, %v)",
					c.size, viaExchange, sum, sumSq, fs.sum[0], fs.sumSq[0])
			}
		}
		if fs.ops[1] != 0 {
			t.Fatalf("size %d: untouched tile counted %d updates", c.size, fs.ops[1])
		}
	}
}

// exactVariance is the two-pass population variance of the stored
// (centred) values — the reference the incremental moments approximate.
func exactVariance(s *FlatState) float64 {
	var sum float64
	for _, y := range s.y {
		sum += y
	}
	m := sum / float64(len(s.y))
	var ss float64
	for _, y := range s.y {
		d := y - m
		ss += d * d
	}
	return ss / float64(len(s.y))
}

// TestFlatStateDriftLargeTiles bounds the tracked form's incremental
// moments' drift on tiles longer than resyncInterval, which resync only once per tile size:
// two 2^17+3-node cliques of values 1e6 + 1e3·U(0,1) are averaged for
// 1.5·10^7 events each — over a hundred resync periods, until the variance
// has fallen far below 1e-7 of its start — and at every checkpoint
// Variance() must agree with a two-pass exact variance to 1e-8 relative.
func TestFlatStateDriftLargeTiles(t *testing.T) {
	const (
		side       = 1<<17 + 3
		perTile    = 15_000_000
		chunk      = 256
		cross      = 32      // cross-tile exchanges per chunk, mixing the halves
		checkEvery = 1 << 12 // chunks between checkpoints: ~10^6 events
	)
	ig, err := graph.ImplicitDumbbell(side, side, 1)
	if err != nil {
		t.Fatal(err)
	}
	til := ig.Tiling()
	r := rng.New(41)
	x0 := make([]float64, ig.NumNodes())
	for i := range x0 {
		x0[i] = 1e6 + 1e3*r.Float64()
	}
	fs, err := NewFlatState(x0, til.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	v0 := exactVariance(fs)
	us, vs := make([]int32, chunk), make([]int32, chunk)
	worst := 0.0
	rounds := (perTile + chunk - 1) / chunk
	for round := 1; round <= rounds; round++ {
		for ti := range til.Tiles {
			til.Tiles[ti].Fill(r, us, vs)
			fs.TickTileTracked(ti, us, vs)
		}
		for k := 0; k < cross; k++ {
			fs.Exchange(int32(r.Intn(side)), int32(side+r.Intn(side)))
		}
		if round%checkEvery == 0 || round == rounds {
			exact := exactVariance(fs)
			rel := math.Abs(fs.Variance()-exact) / exact
			worst = max(worst, rel)
			if !(rel <= 1e-8) {
				t.Fatalf("after %d events per tile: Variance %v, exact %v (relative error %.3g)",
					round*chunk, fs.Variance(), exact, rel)
			}
		}
	}
	if v := exactVariance(fs); !(v < 1e-7*v0) {
		t.Fatalf("variance fell only from %v to %v", v0, v)
	}
	t.Logf("worst relative drift %.3g", worst)
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

// TestFlatStateTickFormsMatch drives the same chunks and boundary
// exchanges through TickTile on one state and TickTileTracked on another:
// the values must stay bit-identical, whatever the moments do.
func TestFlatStateTickFormsMatch(t *testing.T) {
	til, lazy := flatFixture(t, 3)
	_, tracked := flatFixture(t, 3)
	r := rng.New(4)
	us, vs := make([]int32, 97), make([]int32, 97)
	for round := 0; round < 300; round++ {
		for ti := range til.Tiles {
			til.Tiles[ti].Fill(r, us, vs)
			lazy.TickTile(ti, us, vs)
			tracked.TickTileTracked(ti, us, vs)
		}
		be := til.Boundary[r.Intn(len(til.Boundary))]
		lazy.Exchange(int32(be.U), int32(be.V))
		tracked.Exchange(int32(be.U), int32(be.V))
	}
	for u := 0; u < lazy.N(); u++ {
		if math.Float64bits(lazy.Value(u)) != math.Float64bits(tracked.Value(u)) {
			t.Fatalf("value %d: TickTile %v, TickTileTracked %v", u, lazy.Value(u), tracked.Value(u))
		}
	}
}

// exactTileMoments is Mean and Variance computed from the values alone:
// each tile's Σy and Σy² accumulated in node order, then combined in tile
// order — what resyncing every tile and reading the moments gives.
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

// TestFlatStateLazyMomentsExact checks the values-only form's moments:
// after TickTile chunks on every tile (with boundary exchanges between
// them), Mean and Variance must equal an exact per-tile resync bit for
// bit, and must leave every tile clean.
func TestFlatStateLazyMomentsExact(t *testing.T) {
	til, fs := flatFixture(t, 5)
	r := rng.New(6)
	us, vs := make([]int32, 64), make([]int32, 64)
	for round := 0; round < 20; round++ {
		for ti := range til.Tiles {
			til.Tiles[ti].Fill(r, us, vs)
			fs.TickTile(ti, us, vs)
			be := til.Boundary[r.Intn(len(til.Boundary))]
			fs.Exchange(int32(be.U), int32(be.V))
		}
		_, wantVar := exactTileMoments(fs)
		if got := fs.Variance(); math.Float64bits(got) != math.Float64bits(wantVar) {
			t.Fatalf("round %d: Variance %v, exact resync %v", round, got, wantVar)
		}
		for ti, d := range fs.dirty {
			if d {
				t.Fatalf("round %d: tile %d still dirty after Variance", round, ti)
			}
		}
		til.Tiles[round%len(til.Tiles)].Fill(r, us, vs)
		fs.TickTile(round%len(til.Tiles), us, vs)
		wantMean, _ := exactTileMoments(fs)
		if got := fs.Mean(); math.Float64bits(got) != math.Float64bits(wantMean) {
			t.Fatalf("round %d: Mean %v, exact resync %v", round, got, wantMean)
		}
	}
}

// TestFlatStateTrackedResyncsDirtyTile checks that TickTileTracked on a
// tile left dirty by TickTile re-accumulates its moments before adding
// the chunk's deltas: the result must equal an explicit resync followed
// by the same tracked chunk, bit for bit, and a dirty tile it does not
// tick must stay dirty.
func TestFlatStateTrackedResyncsDirtyTile(t *testing.T) {
	til, fs := flatFixture(t, 7)
	_, ref := flatFixture(t, 7)
	r := rng.New(8)
	us, vs := make([]int32, 200), make([]int32, 200)
	for ti := range til.Tiles {
		til.Tiles[ti].Fill(r, us, vs)
		fs.TickTile(ti, us, vs)
		ref.TickTile(ti, us, vs)
	}
	ref.resyncTile(0)
	til.Tiles[0].Fill(r, us, vs)
	fs.TickTileTracked(0, us, vs)
	ref.TickTileTracked(0, us, vs)
	if math.Float64bits(fs.sum[0]) != math.Float64bits(ref.sum[0]) ||
		math.Float64bits(fs.sumSq[0]) != math.Float64bits(ref.sumSq[0]) {
		t.Fatalf("tile 0 moments (%v, %v), resync-then-track (%v, %v)",
			fs.sum[0], fs.sumSq[0], ref.sum[0], ref.sumSq[0])
	}
	if fs.dirty[0] || fs.ops[0] != int64(len(us)) {
		t.Fatalf("tile 0: dirty %v, ops %d after one tracked chunk of %d", fs.dirty[0], fs.ops[0], len(us))
	}
	if !fs.dirty[1] || !fs.dirty[2] {
		t.Fatalf("untouched tiles resynced: dirty %v", fs.dirty)
	}
}
