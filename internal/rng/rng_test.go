package rng

import (
	"fmt"
	"math"
	"math/bits"
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

// TestCountOnes pins CountOnes to the popcount of ⌈n/64⌉ Uint64 outputs,
// the last one masked to its low n%64 bits: the same count and the same
// next output, from the start, the last word and the end of a block, for
// counts around one word and across whole blocks.
func TestCountOnes(t *testing.T) {
	for _, off := range []int{0, u64BlockSize - 1, u64BlockSize} {
		for _, n := range []int{0, 1, 63, 64, 65, 400, 1<<14 + 7} {
			a, b := New(uint64(31+n)), New(uint64(31+n))
			a.refill()
			b.refill()
			a.pos, b.pos = off, off
			want := 0
			for left := n; left > 0; left -= 64 {
				w := b.Uint64()
				if left < 64 {
					w &= 1<<left - 1
				}
				want += bits.OnesCount64(w)
			}
			if got := a.CountOnes(n); got != want {
				t.Errorf("offset %d, n %d: count %d, want %d", off, n, got, want)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Errorf("offset %d, n %d: next output %d, want %d", off, n, x, y)
			}
		}
	}
}

// TestFillIntnMatchesIntn pins FillIntn to one Intn call per element: the
// same values and the same next output, from several stream positions and
// for fills on both sides of the block size.
func TestFillIntnMatchesIntn(t *testing.T) {
	for _, skip := range []int{0, 100, 255} {
		for _, size := range []int{0, 1, 255, 256, 257, 1000} {
			for _, n := range []int{1, 3, 1 << 20, math.MaxInt32} {
				a, b := New(17), New(17)
				for i := 0; i < skip; i++ {
					a.Uint64()
					b.Uint64()
				}
				got := make([]int32, size)
				FillIntn(a, got, n)
				for i, v := range got {
					if want := b.Intn(n); int(v) != want {
						t.Fatalf("skip %d, size %d, n %d: element %d is %d, want %d", skip, size, n, i, v, want)
					}
				}
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Errorf("skip %d, size %d, n %d: next output %d, want %d", skip, size, n, x, y)
				}
			}
		}
	}
}

// TestFillIntnRejection plants words in the block buffer that land in
// Lemire's rejection zone, which random streams reach with probability
// about n/2^64 per draw. For n = 3 the exact threshold is 2^64 mod 3 = 1:
// the word 0 gives lo = 0 < thresh, a rejection that redraws, and the
// inverse of 3 gives lo = 1, below the bound but accepted by IntnSlow.
// FillIntn must match Intn on the values and on the stream position.
func TestFillIntnRejection(t *testing.T) {
	const (
		n      = 3
		reject = 0                  // lo = 0 < thresh: redrawn
		accept = 0xaaaaaaaaaaaaaaab // 3·accept ≡ 1 (mod 2^64): lo = 1, thresh <= lo < n
	)
	if bound := uint64(n); -bound%bound != 1 {
		t.Fatalf("threshold %d, want 1", -bound%bound)
	}
	plants := []map[int]uint64{
		{3: accept},
		{3: reject},
		{3: reject, 4: reject, 5: accept, 9: accept},
		{255: reject}, // the redraw refills the block
		{254: accept, 255: reject},
	}
	for pi, plant := range plants {
		for _, size := range []int{1, 8, 300} {
			a := New(23)
			a.refill()
			a.pos = 2
			if _, tail := plant[255]; tail {
				a.pos = 250
			}
			for i, w := range plant {
				a.buf[i] = w
			}
			b := *a
			got := make([]int32, size)
			FillIntn(a, got, n)
			for i, v := range got {
				if want := b.Intn(n); int(v) != want {
					t.Fatalf("plant %d, size %d: element %d is %d, want %d", pi, size, i, v, want)
				}
			}
			if a.pos != b.pos || a.s != b.s {
				t.Errorf("plant %d, size %d: stream at %d, want %d", pi, size, a.pos, b.pos)
			}
		}
	}
}

func TestFillIntnPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -1, math.MaxInt32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillIntn with n = %d did not panic", n)
				}
			}()
			FillIntn(New(1), make([]int32, 1), n)
		}()
	}
}

func BenchmarkFillIntn(b *testing.B) {
	r := New(1)
	dst := make([]int32, 256)
	for i := 0; i < b.N; i++ {
		FillIntn(r, dst, 1000)
	}
}

// intnPairs draws count pairs of FillPairs' reference: Intn(n), then
// Intn(n-1) bumped past the first.
func intnPairs(r *RNG, count int, base int32, n int) (us, vs []int32) {
	for ; count > 0; count-- {
		i, j := r.Intn(n), r.Intn(n-1)
		if j >= i {
			j++
		}
		us, vs = append(us, base+int32(i)), append(vs, base+int32(j))
	}
	return us, vs
}

// checkFillPairs runs FillPairs on a and the two Intn calls per pair on a
// twin copy of it, one chunk per call, and fails unless the pairs, the
// next Uint64 and the next Float64 agree.
func checkFillPairs(t *testing.T, label string, a *RNG, base int32, n int, chunks ...int) {
	t.Helper()
	b := *a
	for _, chunk := range chunks {
		us, vs := make([]int32, chunk), make([]int32, chunk)
		FillPairs(a, us, vs, base, n)
		wantU, wantV := intnPairs(&b, chunk, base, n)
		for k := range us {
			if us[k] != wantU[k] || vs[k] != wantV[k] {
				t.Fatalf("%s, chunk %d: pair %d is (%d,%d), want (%d,%d)", label, chunk, k, us[k], vs[k], wantU[k], wantV[k])
			}
		}
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s: next Uint64 %#x, want %#x", label, x, y)
	}
	if x, y := a.Float64(), b.Float64(); x != y {
		t.Fatalf("%s: next Float64 %v, want %v", label, x, y)
	}
}

// TestFillPairsMatchesIntn pins FillPairs to Intn(n), Intn(n-1) per pair
// from every block offset: offset 256 is the empty block, where the state
// is drawn in registers, and odd offsets make a pair straddle the block
// end. Two chunks per case check that a call resumes where the last one
// left the stream.
func TestFillPairsMatchesIntn(t *testing.T) {
	for _, n := range []int{2, 3, 64, 500_000, math.MaxInt32} {
		base := int32(7)
		if n == math.MaxInt32 {
			base = 0
		}
		for off := 0; off <= u64BlockSize; off++ {
			for _, chunk := range []int{1, 2, 127, 128, 129, 256, 257, 1000} {
				a := New(uint64(n) + uint64(off))
				a.refill()
				a.pos = off
				checkFillPairs(t, fmt.Sprintf("n %d, offset %d", n, off), a, base, n, chunk, chunk)
			}
		}
	}
}

// TestFillPairsRejectionBuffered plants words in the block buffer that
// land in Lemire's rejection zone, as TestFillIntnRejection does. The
// first word of a pair draws from n and the second from n-1; n = 3 and
// n = 4 put a bound of 3, whose threshold is 1, on each of them. The
// word 0 is then rejected and the inverse of 3 is below the bound but
// accepted.
func TestFillPairsRejectionBuffered(t *testing.T) {
	const (
		reject = 0
		accept = 0xaaaaaaaaaaaaaaab
	)
	plants := []map[int]uint64{
		{2: reject},
		{3: reject},
		{3: accept},
		{2: accept, 3: reject, 4: reject, 5: reject, 9: accept},
		{255: reject}, // the redraw refills the block
		{254: accept, 255: reject},
		{254: reject},
	}
	for _, n := range []int{3, 4} {
		for pi, plant := range plants {
			starts := []int{2}
			if _, tail := plant[255]; tail {
				starts = []int{250, 251} // a whole and a straddling last pair
			}
			for _, start := range starts {
				for _, chunk := range []int{1, 8, 300} {
					a := New(23)
					a.refill()
					a.pos = start
					for i, w := range plant {
						a.buf[i] = w
					}
					checkFillPairs(t, fmt.Sprintf("n %d, plant %d, start %d", n, pi, start), a, 0, n, chunk)
				}
			}
		}
	}
}

// unstep inverts one xoshiro256++ state transition.
func unstep(s [4]uint64) [4]uint64 {
	s3 := bits.RotateLeft64(s[3], -45) // s3 ^ s1
	s0 := s[0] ^ s3
	x := s[1] ^ s[2] // s1 ^ s1<<17
	s1 := x ^ x<<17 ^ x<<34 ^ x<<51
	s2 := s[1] ^ s1 ^ s0
	return [4]uint64{s0, s1, s2, s3 ^ s1}
}

// TestFillPairsRejectionRegisters forces rejection-zone words while the
// block is empty and the state is stepped in locals. s0 = s3 = 0 makes the
// next output 0, rejected under a bound of 3; s0 = 0 with s3 =
// rotr(accept, 23) makes it the accepted inverse of 3. unstep moves such a
// state one output later, so the second word of a pair is hit as well.
func TestFillPairsRejectionRegisters(t *testing.T) {
	const accept = 0xaaaaaaaaaaaaaaab
	for _, s := range [][4]uint64{{1, 2, 3, 4}, {0x12345, 0xfedcba, 0x777, 0x9999}} {
		p := unstep(s)
		if _, t0, t1, t2, t3 := step(p[0], p[1], p[2], p[3]); [4]uint64{t0, t1, t2, t3} != s {
			t.Fatalf("unstep(%#x) does not invert step", s)
		}
	}
	states := [][4]uint64{
		{0, 0x5555, 0x3333, 0},
		{0, 0x5555, 0x3333, bits.RotateLeft64(accept, -23)},
	}
	for _, s := range states {
		if out, _, _, _, _ := step(s[0], s[1], s[2], s[3]); out != 0 && out != accept {
			t.Fatalf("planted state %#x outputs %#x", s, out)
		}
	}
	for _, s := range states {
		states = append(states, unstep(s))
	}
	for _, n := range []int{3, 4} {
		for si, s := range states {
			for _, chunk := range []int{1, 2, 300} {
				a := New(1)
				a.s = s
				checkFillPairs(t, fmt.Sprintf("n %d, state %d", n, si), a, 0, n, chunk)
			}
		}
	}
}

func TestFillPairsPanics(t *testing.T) {
	for _, c := range []struct {
		base int32
		n    int
		vs   int
	}{{0, 1, 1}, {0, 0, 1}, {-1, 4, 1}, {1, math.MaxInt32, 1}, {0, 4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillPairs with base %d, n %d, len(vs) %d did not panic", c.base, c.n, c.vs)
				}
			}()
			FillPairs(New(1), make([]int32, 1), make([]int32, c.vs), c.base, c.n)
		}()
	}
}
