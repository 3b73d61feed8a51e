// Package rng provides deterministic, splittable random number generation
// and the probability distributions used by the simulator.
//
// Every stochastic component of a simulation (workload generation, scheduler
// tie-breaking, topology construction, ...) draws from its own named
// sub-stream derived from the experiment seed, so adding randomness to one
// component never perturbs another — a property the reproduction relies on
// when comparing algorithm pairs run under "the same" workload.
package rng

import "math"

// Source is a deterministic 64-bit PRNG (xoshiro256**) seeded via SplitMix64.
// The zero value is not useful; construct with New or Derive.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64 state expansion.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start at the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x853c49e6748fea9b
	}
	return &src
}

// Derive returns an independent sub-stream identified by name. Identical
// (parent seed, name) pairs always produce identical streams.
func (s *Source) Derive(name string) *Source {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(h ^ s.s[0] ^ (s.s[1] << 1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n)) // modulo bias negligible for simulator-scale n
}

// Range returns a uniform float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Geometric returns values in [0, n) from a truncated geometric
// distribution with success probability p: P(k) ∝ (1-p)^k. This is the
// dataset-popularity distribution of the paper's Figure 2.
type Geometric struct {
	src   *Source
	log1q float64 // log1p(-p), the divisor of every draw
	n     int
}

// NewGeometric returns a sampler drawing from src. It panics unless
// 0 < p < 1 and n > 0.
func NewGeometric(src *Source, p float64, n int) *Geometric {
	if p <= 0 || p >= 1 || n <= 0 {
		panic("rng: Geometric requires 0 < p < 1 and n > 0")
	}
	return &Geometric{src: src, log1q: math.Log1p(-p), n: n}
}

// Draw samples a value in [0, n).
func (g *Geometric) Draw() int {
	for {
		// Inverse-CDF sampling of the untruncated geometric, rejecting
		// draws beyond the truncation point keeps the ∝(1-p)^k shape exact.
		u := g.src.Float64()
		k := int(math.Floor(math.Log1p(-u) / g.log1q))
		if k < g.n {
			return k
		}
	}
}

// Zipf returns a value in [0, n) following a Zipf distribution with
// exponent alpha ≥ 0 (alpha = 0 degenerates to uniform). Used for the
// workload-extension experiments.
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf precomputes the CDF for n ranks with the given exponent.
func NewZipf(src *Source, alpha float64, n int) *Zipf {
	if n <= 0 || alpha < 0 {
		panic("rng: NewZipf requires n > 0 and alpha >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shuffle permutes xs in place (Fisher–Yates).
func Shuffle[T any](s *Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Pick returns a uniformly chosen element of xs. It panics on an empty slice.
func Pick[T any](s *Source, xs []T) T {
	return xs[s.Intn(len(xs))]
}
