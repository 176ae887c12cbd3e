// Package rng provides deterministic, splittable pseudo-random streams and
// the distributions the TCB workload generator and experiments depend on:
// uniform, truncated normal (request lengths) and exponential (the gaps of
// a Poisson arrival process).
//
// Every experiment in this repository is seeded, so paper figures regenerate
// bit-identically across runs and machines. The core generator is
// SplitMix64, which is tiny, fast, and has well-understood equidistribution
// for the stream lengths used here.
package rng

import "math"

// Source is a deterministic 64-bit pseudo-random stream.
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from s. The child is a pure
// function of the parent state, so splitting is itself deterministic.
func (s *Source) Split() *Source {
	// Mix the next output back through the finalizer with a distinct
	// constant so parent and child sequences decorrelate.
	v := s.Uint64()
	v ^= 0x9e3779b97f4a7c15
	v *= 0xbf58476d1ce4e5b9
	return New(v)
}

// Uint64 returns the next 64 random bits (SplitMix64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Normal returns a sample from N(mean, stddev²) via Box–Muller.
func (s *Source) Normal(mean, stddev float64) float64 {
	// Reject u1 == 0 to keep Log finite.
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// TruncatedNormalInt samples an integer from N(mean, stddev²) rejected into
// [lo, hi]. This is the paper's request-length distribution ("3−100 tokens
// according to a normal distribution"). Rejection keeps the in-range shape
// exactly normal.
func (s *Source) TruncatedNormalInt(mean, stddev float64, lo, hi int) int {
	if lo > hi {
		panic("rng: TruncatedNormalInt lo > hi")
	}
	for i := 0; i < 1024; i++ {
		v := int(math.Round(s.Normal(mean, stddev)))
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological parameters (mass almost entirely outside range):
	// fall back to clamping so callers always terminate.
	v := int(math.Round(s.Normal(mean, stddev)))
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
// Inter-arrival gaps of a Poisson process with intensity rate are Exp(rate).
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with rate <= 0")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}
