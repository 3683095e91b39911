package rng

import (
	"math"
	"testing"
	"testing/quick"

	"sparsecut/internal/stats"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for distinct seeds collided %d/100 times", same)
	}
}

func TestNewZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split child reproduced parent stream")
	}
}

func TestSplitDeterministic(t *testing.T) {
	a, b := New(7).Split(), New(7).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from %v by more than 5 sigma", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63NonNegative(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned a negative value")
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	for _, rate := range []float64{0.5, 1, 4} {
		r := New(13)
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.ExpFloat64(rate)
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("rate %v: sample mean %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpFloat64Positive(t *testing.T) {
	r := New(19)
	for i := 0; i < 100000; i++ {
		if v := r.ExpFloat64(1); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 produced invalid sample %v", v)
		}
	}
}

func TestExpFloat64PanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExpFloat64(0) did not panic")
		}
	}()
	New(1).ExpFloat64(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 400000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMeanSmall(t *testing.T) {
	r := New(29)
	const n = 100000
	mean := 3.5
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean)/mean > 0.03 {
		t.Errorf("Poisson(%v) sample mean %v", mean, got)
	}
}

func TestPoissonMeanLarge(t *testing.T) {
	r := New(31)
	const n = 50000
	mean := 500.0
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean)/mean > 0.01 {
		t.Errorf("Poisson(%v) sample mean %v", mean, got)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := New(1).Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(37)
	for _, mean := range []float64{0.01, 1, 64, 65, 1000} {
		for i := 0; i < 1000; i++ {
			if v := r.Poisson(mean); v < 0 {
				t.Fatalf("Poisson(%v) returned %d", mean, v)
			}
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(43)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first-element %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(47)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExpFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ExpFloat64(1)
	}
	_ = sink
}

func BenchmarkExpUnit(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.ExpUnit()
	}
	_ = sink
}

// BenchmarkFillExpBatch reports the cost per draw of filling 1024-draw
// batches, the batched engines' way of sampling gaps.
func BenchmarkFillExpBatch(b *testing.B) {
	r := New(1)
	dst := make([]float64, 1024)
	for i := 0; i < b.N; i += len(dst) {
		r.FillExp(dst, 1)
	}
}

// BenchmarkGammaInt256 is the Gamma bridge draw of one 256-event chunk,
// with the per-shape constants cached across draws.
func BenchmarkGammaInt256(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.GammaInt(256)
	}
	_ = sink
}

// BenchmarkGammaIntMixedShapes alternates shapes, which defeats the
// per-shape cache on every draw: the worst case of BenchmarkGammaInt256.
func BenchmarkGammaIntMixedShapes(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			sink += r.GammaInt(64)
		} else {
			sink += r.GammaInt(256)
		}
	}
	_ = sink
}

// Regression for the open-interval fix: neither exponential sampler may
// ever return exactly 0 or +Inf (the old 1-Float64() inversion could
// return 0 when Float64() hit its lattice endpoint).
func TestExponentialSamplersOpenSupport(t *testing.T) {
	r := New(123)
	for i := 0; i < 2_000_000; i++ {
		x := r.ExpFloat64(2.5)
		if !(x > 0) || math.IsInf(x, 1) {
			t.Fatalf("ExpFloat64 draw %d = %v", i, x)
		}
		u := r.ExpUnit()
		if !(u > 0) || math.IsInf(u, 1) {
			t.Fatalf("ExpUnit draw %d = %v", i, u)
		}
	}
	// The inversion endpoints themselves stay strictly inside the support:
	// the extreme mantissae map to finite positive samples. (The 52-bit
	// lattice matters: with 53 bits the upper endpoint would round to 1.0
	// and map to -0.)
	if x := -math.Log(0.5 * (1.0 / (1 << 52))); math.IsInf(x, 1) || !(x > 0) {
		t.Fatalf("lower lattice endpoint maps to %v", x)
	}
	if x := -math.Log((float64(1<<52-1) + 0.5) * (1.0 / (1 << 52))); !(x > 0) {
		t.Fatalf("upper lattice endpoint maps to %v (must stay positive)", x)
	}
}

// The ziggurat sampler must realise the unit exponential: first two
// moments, tail mass beyond the base layer, and a uniform CDF transform.
func TestExpUnitDistribution(t *testing.T) {
	r := New(42)
	const n = 2_000_000
	var sum, sumSq float64
	tail := 0
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		x := r.ExpUnit()
		sum += x
		sumSq += x * x
		if x > zigR {
			tail++
		}
		q := int(10 * (1 - math.Exp(-x)))
		if q > 9 {
			q = 9
		}
		buckets[q]++
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.005 {
		t.Errorf("mean %v, want ~1", mean)
	}
	if v := sumSq/n - mean*mean; math.Abs(v-1) > 0.02 {
		t.Errorf("variance %v, want ~1", v)
	}
	wantTail := math.Exp(-zigR) // 4.54e-4
	if got := float64(tail) / n; math.Abs(got-wantTail)/wantTail > 0.15 {
		t.Errorf("tail mass %v, want ~%v", got, wantTail)
	}
	for q, c := range buckets {
		if math.Abs(float64(c)-n/10.0) > 5*math.Sqrt(n*0.1*0.9) {
			t.Errorf("CDF decile %d holds %d, want ~%d", q, c, n/10)
		}
	}
}

// ExpUnit is the composition of the exported fast path and slow finisher —
// the pair hot loops inline must reproduce it draw for draw.
func TestZigAcceptComposition(t *testing.T) {
	a, b := New(9), New(9)
	for i := 0; i < 200000; i++ {
		want := a.ExpUnit()
		u := b.Uint64()
		got, ok := ZigAccept(u)
		if !ok {
			got = b.ExpUnitSlow(u)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: %v composed vs %v ExpUnit", i, got, want)
		}
	}
}

// FillExp must be exactly ExpUnit()/rate in sequence.
func TestFillExpMatchesExpUnit(t *testing.T) {
	a, b := New(31), New(31)
	dst := make([]float64, 1000)
	a.FillExp(dst, 4)
	inv := 1 / 4.0
	for i, v := range dst {
		want := b.ExpUnit() * inv
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("gap %d: %v FillExp vs %v ExpUnit/rate", i, v, want)
		}
		if !(v > 0) {
			t.Fatalf("gap %d not positive: %v", i, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("rate <= 0 not rejected")
		}
	}()
	a.FillExp(dst, 0)
}

// The ziggurat tables must close: the recurrence ends at zero width with
// total mass 1.
func TestZigguratTablesClose(t *testing.T) {
	if zigX[256] != 0 {
		t.Errorf("zigX[256] = %v", zigX[256])
	}
	if zigY[256] != 1 {
		t.Errorf("zigY[256] = %v", zigY[256])
	}
	// Closure: the top layer's area matches the common layer area v.
	if top := zigX[255] * (zigY[256] - zigY[255]); math.Abs(top-zigV)/zigV > 1e-6 {
		t.Errorf("top layer area %v, want ~%v", top, zigV)
	}
	for i := 0; i < 256; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("zigX not strictly decreasing at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
	}
}

// GammaInt(k) must have mean k and variance k — checked for small and
// chunk-sized shapes with Monte-Carlo tolerances of a few sigma.
func TestGammaIntMoments(t *testing.T) {
	r := New(9)
	for _, k := range []int{1, 2, 3, 16, 256} {
		const n = 30000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := r.GammaInt(k)
			if !(v > 0) {
				t.Fatalf("GammaInt(%d) returned non-positive %v", k, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		fk := float64(k)
		// Mean of n samples has sd sqrt(k/n); allow 5 sigma.
		if tol := 5 * math.Sqrt(fk/n); math.Abs(mean-fk) > tol {
			t.Errorf("GammaInt(%d): mean %v, want %v ± %v", k, mean, fk, tol)
		}
		// Var estimate sd ~ sqrt(2/n)·k·(1 + o(1)); allow a loose 8 sigma.
		if tol := 8 * fk * math.Sqrt(2.0/n); math.Abs(variance-fk) > tol {
			t.Errorf("GammaInt(%d): variance %v, want %v ± %v", k, variance, fk, tol)
		}
	}
}

// GammaInt(1) must be exactly the ExpUnit stream: the time-bridged
// simulator with chunk size 1 then consumes gap draws identical to the
// per-event path.
func TestGammaIntShapeOneIsExpUnit(t *testing.T) {
	a, b := New(17), New(17)
	for i := 0; i < 1000; i++ {
		if got, want := a.GammaInt(1), b.ExpUnit(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: GammaInt(1) = %v, ExpUnit = %v", i, got, want)
		}
	}
}

// A Gamma(k) sum-of-chunks must be equidistributed with the per-event sum
// of k exponentials: compare the empirical CDFs of 256-event bridge draws
// against sums of 256 ExpUnit draws by a two-sample KS test.
func TestGammaIntBridgeMatchesExpSum(t *testing.T) {
	const k, n = 256, 1500
	r := New(23)
	bridged := make([]float64, n)
	summed := make([]float64, n)
	for i := 0; i < n; i++ {
		bridged[i] = r.GammaInt(k)
		s := 0.0
		for j := 0; j < k; j++ {
			s += r.ExpUnit()
		}
		summed[i] = s
	}
	d := stats.KSDistance(bridged, summed)
	// Two-sample KS critical value at alpha = 0.001: 1.949·sqrt(2/n).
	if crit := 1.949 * math.Sqrt(2.0/n); d > crit {
		t.Errorf("KS distance %v between Gamma(256) and sum of 256 exponentials exceeds %v", d, crit)
	}
}

func TestGammaIntDeterministic(t *testing.T) {
	a, b := New(101), New(101)
	for i := 0; i < 200; i++ {
		x, y := a.GammaInt(64), b.GammaInt(64)
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
}

// gammaIntUncached is the pre-cache reference implementation: identical
// sampling loop, d/c recomputed on every call.
func gammaIntUncached(r *RNG, k int) float64 {
	if k == 1 {
		return r.ExpUnit()
	}
	d := float64(k) - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// TestGammaIntCacheMatchesUncached drives the d/c shape cache through
// alternating and repeated shapes: every draw must be bit-identical to
// the uncached reference on the same underlying stream.
func TestGammaIntCacheMatchesUncached(t *testing.T) {
	a, b := New(77), New(77)
	shapes := []int{2, 2, 256, 2, 256, 256, 7, 1, 7, 64, 64, 64, 3}
	for round := 0; round < 50; round++ {
		for _, k := range shapes {
			x, y := a.GammaInt(k), gammaIntUncached(b, k)
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("shape %d (round %d): cached %v != uncached %v", k, round, x, y)
			}
		}
	}
}

func TestGammaIntPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape < 1 not rejected")
		}
	}()
	New(1).GammaInt(0)
}

// TestCountLowBits pins CountLowBits to n calls of Uint64()&1: the same
// count and the same next output, from a fresh stream and from the middle
// of a block, for counts on both sides of the block size.
func TestCountLowBits(t *testing.T) {
	for _, skip := range []int{0, 100} {
		for _, n := range []int{0, 1, 255, 256, 257, 1000} {
			a, b := New(31), New(31)
			for i := 0; i < skip; i++ {
				a.Uint64()
				b.Uint64()
			}
			want := 0
			for i := 0; i < n; i++ {
				want += int(b.Uint64() & 1)
			}
			if got := a.CountLowBits(n); got != want {
				t.Errorf("skip %d, n %d: count %d, want %d", skip, n, got, want)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Errorf("skip %d, n %d: next output %d, want %d", skip, n, x, y)
			}
		}
	}
}
