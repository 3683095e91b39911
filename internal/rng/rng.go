// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// The generator is xoshiro256++ seeded through splitmix64. It is not
// cryptographically secure; it is chosen for reproducibility (a simulation
// seeded with the same value produces the same event sequence on every
// platform), speed, and the ability to derive statistically independent
// child streams for parallel Monte-Carlo trials.
//
// Key types: RNG (splittable xoshiro256++ stream). Seed-splitting discipline is part of the determinism contract in DESIGN.md §7.
package rng

import (
	"math"
	"math/bits"
)

// u64BlockSize is the internal generation block: outputs are produced 256
// words at a time with the xoshiro state held in registers, which decouples
// the generator's serial state recurrence from the consumers' float math in
// simulation hot loops. The emitted sequence is identical to calling the
// raw generator once per output.
const u64BlockSize = 256

// RNG is a deterministic pseudo-random number generator.
//
// The zero value is not usable; construct with New. RNG is not safe for
// concurrent use: derive one stream per goroutine with Split.
type RNG struct {
	s [4]uint64

	// Cached second output of the polar method for NormFloat64.
	spare      float64
	spareValid bool

	// Cached Marsaglia–Tsang constants for GammaInt: valid while the
	// shape equals gammaK (0 = empty). The batched simulator draws at a
	// fixed shape (the chunk size) millions of times, so the d/c
	// recomputation — a divide and a sqrt per draw — is pure overhead.
	gammaK int
	gammaD float64
	gammaC float64

	// Block buffer of pre-generated outputs; pos == u64BlockSize means
	// empty.
	pos int
	buf [u64BlockSize]uint64
}

// splitmix64 advances a 64-bit state and returns the next output. It is the
// standard seed expander for the xoshiro family.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed. Distinct seeds
// yield (for all practical purposes) independent streams.
func New(seed uint64) *RNG {
	r := &RNG{pos: u64BlockSize}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// A state of all zeros is the one forbidden state of xoshiro256++;
	// splitmix64 cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new generator whose stream is independent of the parent's
// future output. The parent is advanced, so successive Split calls return
// distinct streams.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Uint64 returns the next 64 uniformly distributed bits, served from the
// pre-generated block — small enough to inline at every call site, with
// the xoshiro recurrence amortised into refill.
func (r *RNG) Uint64() uint64 {
	if r.pos >= u64BlockSize {
		r.refill()
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// refill regenerates the output block, holding the state in registers for
// the whole run, and marks it full.
func (r *RNG) refill() {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range r.buf {
		r.buf[i], s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	r.pos = 0
}

// step is one xoshiro256++ output and state transition on a state held in
// locals. The rotations are written out so it inlines into straight-line
// integer ops. refill and FillPairs both step through it, so the words
// they produce cannot differ.
func step(s0, s1, s2, s3 uint64) (out, t0, t1, t2, t3 uint64) {
	x := s0 + s3
	out = (x<<23 | x>>41) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, s3<<45 | s3>>19
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and branch-light.
	// bits.Mul64 compiles to a single widening multiply, and the expensive
	// 64-bit modulo that computes the exact rejection threshold only runs
	// when lo < n (probability n/2^64), not on every call.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		hi = r.IntnSlow(hi, lo, bound)
	}
	return int(hi)
}

// IntnSlow resolves the rare rejection branch of Intn's Lemire pick. Hot
// loops that inline the fast path — hi, lo := bits.Mul64(r.Uint64(),
// bound) — call this when lo < bound, exactly as Intn does; keeping the
// threshold logic here means there is a single source of truth for the
// draw sequence. The inlining caller is the fused per-event loop
// (sim/kernel.go); FillIntn and FillPairs hand their rejections to Intn.
func (r *RNG) IntnSlow(hi, lo, bound uint64) uint64 {
	thresh := (-bound) % bound
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), bound)
	}
	return hi
}

// FillIntn fills dst with uniform integers in [0, n): the same values,
// leaving the stream at the same position, as one r.Intn(n) per element.
// It reads the block buffer in a local loop, so the draws do not
// serialise on a per-draw position store; the rare draw that lands in
// the Lemire rejection zone (lo < n) is handed to Intn. The batched
// engine's uniform edge picks use it. It panics if n <= 0 or n does not
// fit in T.
func FillIntn[T ~int32](r *RNG, dst []T, n int) {
	if n <= 0 || int(T(n)) != n {
		panic("rng: FillIntn called with n <= 0 or n out of range")
	}
	bound := uint64(n)
	for len(dst) > 0 {
		if r.pos >= u64BlockSize {
			r.refill()
		}
		src := r.buf[r.pos:min(u64BlockSize, r.pos+len(dst))]
		out := dst[:len(src)]
		i := 0
		for ; i < len(src); i++ {
			hi, lo := bits.Mul64(src[i], bound)
			if lo < bound {
				break
			}
			out[i] = T(hi)
		}
		r.pos += i
		dst = dst[i:]
		if i < len(src) {
			dst[0] = T(r.Intn(n))
			dst = dst[1:]
		}
	}
}

// FillPairs fills us and vs with uniform pairs of distinct nodes in
// [base, base+n): us[k] = base+i and vs[k] = base+j, where i = Intn(n),
// j = Intn(n-1), and j is bumped by one when j >= i. The values, and the
// stream position left behind, are those of the two Intn calls per pair.
// It is the implicit graphs' clique edge sampler (graph.Tile.Fill).
//
// Words left in the block are read in a local loop, as FillIntn does.
// Once the block is empty the state is the next stream position, so the
// xoshiro256++ step runs in locals, pos stays at the block end and the
// state is written back once: the next Uint64 refills from exactly there.
// A word in Lemire's rejection zone goes to Intn or IntnSlow with the
// stream position exact, so the threshold rule stays theirs. It panics if
// n < 2, if [base, base+n) is not a range of non-negative int32 values,
// or if len(vs) < len(us).
func FillPairs(r *RNG, us, vs []int32, base int32, n int) {
	if n < 2 || base < 0 || int64(base)+int64(n) > math.MaxInt32 {
		panic("rng: FillPairs called with n < 2 or a range outside int32")
	}
	bi, bj := uint64(n), uint64(n-1)
	vs = vs[:len(us)]
	k := 0
outer:
	for k < len(us) {
		src := r.buf[r.pos:]
		p := 0
		for ; k < len(us) && p+1 < len(src); k++ {
			i, lo := bits.Mul64(src[p], bi)
			j, lo2 := bits.Mul64(src[p+1], bj)
			if lo < bi || lo2 < bj {
				break
			}
			us[k], vs[k] = pair(base, i, j)
			p += 2
		}
		r.pos += p
		switch {
		case k == len(us):
			return
		case r.pos == u64BlockSize-1:
			// One word left: shift it down and append the state's next
			// output, so the pair lies whole in the block.
			r.buf[u64BlockSize-2] = r.buf[u64BlockSize-1]
			r.buf[u64BlockSize-1], r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
			r.pos--
			continue
		case r.pos < u64BlockSize:
			// A word in the rejection zone: the pair takes the Intn path.
			i := r.Intn(n)
			us[k], vs[k] = pair(base, uint64(i), uint64(r.Intn(n-1)))
			k++
			continue
		}
		// The block is empty. Each check follows its own word, so only
		// the state, not the words, is live across a step; on a
		// rejection-zone word the state is written back first.
		s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
		var w uint64
		for ; k < len(us); k++ {
			w, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			i, lo := bits.Mul64(w, bi)
			if lo < bi {
				r.s = [4]uint64{s0, s1, s2, s3}
				i = r.IntnSlow(i, lo, bi)
				us[k], vs[k] = pair(base, i, uint64(r.Intn(n-1)))
				k++
				continue outer
			}
			w, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			j, lo := bits.Mul64(w, bj)
			if lo < bj {
				r.s = [4]uint64{s0, s1, s2, s3}
				us[k], vs[k] = pair(base, i, r.IntnSlow(j, lo, bj))
				k++
				continue outer
			}
			us[k], vs[k] = pair(base, i, j)
		}
		r.s = [4]uint64{s0, s1, s2, s3}
	}
}

// pair maps the draws i in [0, n) and j in [0, n-1) to distinct nodes.
func pair(base int32, i, j uint64) (int32, int32) {
	if j >= i {
		j++
	}
	return base + int32(i), base + int32(j)
}

// CountOnes returns the number of set bits among the next n random bits:
// the popcount of n/64 whole outputs plus that of the low n%64 bits of one
// more output when n%64 > 0. It consumes ⌈n/64⌉ outputs, as many Uint64
// calls would. The whole words are read from the block buffer in a local
// loop. n <= 0 draws nothing and returns 0.
func (r *RNG) CountOnes(n int) int {
	if n <= 0 {
		return 0
	}
	count := 0
	for words := n / 64; words > 0; {
		if r.pos >= u64BlockSize {
			r.refill()
		}
		m := min(words, u64BlockSize-r.pos)
		for _, v := range r.buf[r.pos : r.pos+m] {
			count += bits.OnesCount64(v)
		}
		r.pos += m
		words -= m
	}
	if rem := n % 64; rem > 0 {
		count += bits.OnesCount64(r.Uint64() & (1<<rem - 1))
	}
	return count
}

// openUnit returns a uniform float64 strictly inside (0, 1): the half-unit
// offset keeps the lattice off both endpoints, so -Log(openUnit) is always
// positive and finite. 52 bits are used so every k+0.5 is exactly
// representable — with 53, the top lattice point (2^53-1)+0.5 would round
// up to 2^53 and map to exactly 1.
func (r *RNG) openUnit() float64 {
	return (float64(r.Uint64()>>12) + 0.5) * (1.0 / (1 << 52))
}

// ExpFloat64 returns an exponentially distributed sample with the given
// rate (mean 1/rate), via inversion on the open interval (0, 1) — the
// sample is never exactly 0 and never +Inf. It panics if rate <= 0.
func (r *RNG) ExpFloat64(rate float64) float64 {
	if rate <= 0 {
		panic("rng: ExpFloat64 called with rate <= 0")
	}
	return -math.Log(r.openUnit()) / rate
}

// Ziggurat tables for the unit exponential (Marsaglia & Tsang, 256 layers).
// zigR is the rightmost layer boundary and zigV the common layer area; the
// remaining abscissae are generated at init from the standard recurrence
// exp(-x[i+1]) = exp(-x[i]) + v/x[i], which closes exactly at x[256] = 0
// for these two constants.
const (
	zigR = 7.69711747013104972
	zigV = 0.0039496598225815571993
)

var (
	zigX [257]float64 // layer widths, decreasing: zigX[0] = v*e^r, ..., zigX[256] = 0
	zigY [257]float64 // zigY[i] = exp(-zigX[i]) for i >= 1, increasing to zigY[256] = 1
	zigW [256]float64 // zigX[i] * 2^-53: pre-scaled so the hot path multiplies once
)

func init() {
	zigX[0] = zigV * math.Exp(zigR)
	zigX[1] = zigR
	for i := 2; i <= 255; i++ {
		zigX[i] = -math.Log(math.Exp(-zigX[i-1]) + zigV/zigX[i-1])
	}
	zigX[256] = 0
	for i := 1; i <= 256; i++ {
		zigY[i] = math.Exp(-zigX[i])
	}
	for i := 0; i < 256; i++ {
		// The power-of-two scaling is exact, so mantissa*zigW[i] rounds to
		// the same float64 as (mantissa*2^-53)*zigX[i].
		zigW[i] = zigX[i] * (1.0 / (1 << 53))
	}
}

// ZigAccept is the accept-fast case of the exponential ziggurat: given 64
// uniform bits it returns the candidate sample and whether it is accepted
// outright (strictly inside its layer, nonzero). Bits 0..7 pick the layer
// and bits 11..63 form the mantissa, so the two are independent. It is
// exported — together with ExpUnitSlow — so simulation hot loops can
// inline the common path; consume the pair exactly as ExpUnit does.
func ZigAccept(u uint64) (float64, bool) {
	i := u & 0xFF
	x := float64(u>>11) * zigW[i]
	return x, x > 0 && x < zigX[i+1]
}

// ExpUnitSlow finishes an ExpUnit draw whose first 64 bits u were not
// accepted by ZigAccept: the base-layer tail, the wedge test (and, on
// rejection or a zero mantissa, fresh draws).
func (r *RNG) ExpUnitSlow(u uint64) float64 {
	for {
		i := u & 0xFF
		x := float64(u>>11) * zigW[i]
		if x > 0 {
			if x < zigX[i+1] {
				return x // fully under the curve within this layer
			}
			if i == 0 {
				// Beyond zigR: by memorylessness the tail is zigR + Exp(1),
				// sampled by inversion on the open interval.
				return zigR - math.Log(r.openUnit())
			}
			// Wedge: the point (x, y) with y uniform over the layer's
			// vertical extent is accepted iff it lies under exp(-x).
			if zigY[i]+r.Float64()*(zigY[i+1]-zigY[i]) < math.Exp(-x) {
				return x
			}
		}
		// Zero mantissa (prob 2^-53, keeps the support open) or wedge
		// rejection: redraw.
		u = r.Uint64()
	}
}

// ExpUnit returns a unit-rate exponential sample via the ziggurat method:
// the common case costs one Uint64, one multiply and two compares — no
// Log. Like ExpFloat64 it never returns 0 or +Inf. Scale by 1/rate for
// other rates; the simulator's schedulers use it for every inter-event
// gap.
func (r *RNG) ExpUnit() float64 {
	u := r.Uint64()
	if x, ok := ZigAccept(u); ok {
		return x
	}
	return r.ExpUnitSlow(u)
}

// GammaInt returns a Gamma(k, 1) sample for an integer shape k >= 1 — the
// distribution of the sum of k independent unit exponentials. It is the
// time-bridging primitive of the batched simulator: instead of drawing k
// per-event exponential gaps, a chunk of k events advances the clock by one
// GammaInt(k) draw (scaled by the mean gap), which is exactly equidistributed
// with the per-event sum. k = 1 delegates to the ziggurat ExpUnit; k >= 2
// uses the Marsaglia–Tsang squeeze method (one normal, one uniform and a few
// multiplies per acceptance; the squeeze accepts ~98% of candidates without
// a Log). It panics if k < 1.
func (r *RNG) GammaInt(k int) float64 {
	if k < 1 {
		panic("rng: GammaInt called with shape < 1")
	}
	if k == 1 {
		return r.ExpUnit()
	}
	// Marsaglia & Tsang (2000): for shape a >= 1, with d = a - 1/3 and
	// c = 1/sqrt(9d), the candidate d·(1 + c·x)³ for x ~ N(0, 1) is
	// accepted when u < 1 − 0.0331·x⁴ (fast squeeze) or
	// log u < x²/2 + d·(1 − v + log v) (exact test). d and c depend only
	// on the shape, so they are cached across same-shape draws.
	if k != r.gammaK {
		r.gammaD = float64(k) - 1.0/3.0
		r.gammaC = 1 / math.Sqrt(9*r.gammaD)
		r.gammaK = k
	}
	d, c := r.gammaD, r.gammaC
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

// NormFloat64 returns a standard normal sample using the Marsaglia polar
// method. Two samples are generated per acceptance; the second is cached.
func (r *RNG) NormFloat64() float64 {
	if r.spareValid {
		r.spareValid = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare, r.spareValid = v*f, true
		return u * f
	}
}

// Poisson returns a Poisson-distributed sample with the given mean.
// It uses Knuth's product method for small means and a normal approximation
// with continuity correction for large means (mean > 64), which is accurate
// to well under the Monte-Carlo noise of any experiment in this repository.
// It panics if mean < 0.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean < 0:
		panic("rng: Poisson called with negative mean")
	case mean == 0:
		return 0
	case mean <= 64:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := mean + math.Sqrt(mean)*r.NormFloat64() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
}
