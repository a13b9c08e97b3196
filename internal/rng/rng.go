// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator and the synthetic trace generators.
//
// All experiments in this repository must be reproducible from a single
// integer seed, including when components run concurrently. To achieve
// that, rng exposes a splittable generator: every subsystem derives its
// own independent substream with Child, keyed by a stable label, so the
// order in which subsystems consume randomness never perturbs each other.
//
// The core generator is xoshiro256**, seeded through splitmix64, following
// the reference constructions by Blackman and Vigna. Neither algorithm is
// cryptographic; they are chosen for speed, statistical quality, and easy
// reproducibility across platforms.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a 64-bit state and returns the next output.
// It is used for seeding and for hashing labels into substream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic pseudo-random number generator.
// It is not safe for concurrent use; derive one per goroutine with Child.
// The zero value is not usable: construct with New or Child.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Two generators constructed
// with the same seed produce identical streams.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Child derives an independent substream keyed by label. Deriving the same
// label twice from generators in identical states yields identical children,
// so subsystems can be given stable names ("overlay", "node/17", ...) and
// remain reproducible regardless of sibling consumption.
func (r *Rand) Child(label string) *Rand {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	// Mix the label hash with fresh output so successive Child calls with
	// the same label on the same parent still produce distinct streams.
	seed := h ^ r.Uint64()
	return New(seed)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// IntRange returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Float64Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Float64Range called with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 64.
// It panics if mean is negative.
func (r *Rand) Poisson(mean float64) int {
	switch {
	case mean < 0:
		panic("rng: Poisson called with negative mean")
	case mean == 0:
		return 0
	case mean > 64:
		// Normal approximation with continuity correction; adequate for
		// workload generation at large means.
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-mean)
	p := 1.0
	n := 0
	for {
		p *= r.Float64()
		if p <= limit {
			return n
		}
		n++
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using swap, via Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniform indices from [0, n) in random order.
// It panics if k > n or k < 0.
func (r *Rand) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k outside [0, n]")
	}
	p := r.Perm(n)
	return p[:k]
}

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](r *Rand, xs []T) T {
	if len(xs) == 0 {
		panic("rng: Pick from empty slice")
	}
	return xs[r.Intn(len(xs))]
}
