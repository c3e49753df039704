// Package xrand provides the deterministic pseudo-random number generators
// used throughout the simulator.
//
// Everything in this repository that consumes randomness — tag populations,
// persistence decisions, frame seeds, experiment trials — draws from this
// package, so a single 64-bit seed pins down an entire experiment. Two
// generators are provided:
//
//   - SplitMix64: a tiny, stateless-per-step mixer. It is used both as a
//     generator for short streams and as the seeding/mixing function for
//     everything else (see Mix64).
//   - Rand: xoshiro256**, a fast general-purpose generator with 256 bits of
//     state, suitable for the long streams a frame simulation consumes.
//
// The package deliberately does not use math/rand: the simulator needs
// stable cross-version output (math/rand's Source behaviour is pinned, but
// its convenience methods are not part of our reproducibility contract) and
// cheap stream splitting keyed by structured tuples (experiment, trial,
// frame), which Mix64/NewStream provide directly.
package xrand

// golden64 is the 64-bit golden ratio increment used by SplitMix64.
const golden64 = 0x9e3779b97f4a7c15

// Mix64 applies the SplitMix64 finalizer to x. It is a high-quality 64-bit
// mixing function: every input bit affects every output bit. It is the
// basis for seeding, stream splitting and the simulator's hash functions.
func Mix64(x uint64) uint64 {
	x += golden64
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Combine folds any number of 64-bit words into a single well-mixed seed.
// It is used to derive per-(experiment, trial, frame, ...) streams from a
// root seed without correlation between sibling streams.
func Combine(words ...uint64) uint64 {
	h := uint64(0x8c21_6fb2_1c7f_92d3)
	for _, w := range words {
		h = Mix64(h ^ w)
	}
	return h
}

// SplitMix64 is a 64-bit PRNG with 64 bits of state. Its period is 2^64 and
// every step is a single Mix64; it is primarily used to seed Rand and for
// short decision streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden64
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is an xoshiro256** generator. The zero value is not usable; construct
// with New or NewStream.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded from seed via SplitMix64, per the xoshiro
// authors' recommendation (avoids the all-zero state and decorrelates
// adjacent seeds).
func New(seed uint64) *Rand {
	r := Seeded(seed)
	return &r
}

// Seeded returns, by value, the generator New(seed) points to. A caller
// that seeds a short-lived generator per frame keeps it on the stack.
func Seeded(seed uint64) Rand {
	sm := SplitMix64{state: seed}
	return Rand{
		s0: sm.Uint64(),
		s1: sm.Uint64(),
		s2: sm.Uint64(),
		s3: sm.Uint64(),
	}
}

// NewStream returns a Rand for the sub-stream identified by the given words
// under the root seed. Sibling streams (differing in any word) are
// statistically independent for simulation purposes.
func NewStream(seed uint64, words ...uint64) *Rand {
	return New(Combine(append([]uint64{seed}, words...)...))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Lemire's method with full 64x64→128 multiply via math/bits-free
	// splitting: use rejection on the low word.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
