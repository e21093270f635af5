// Package xrand provides a small, allocation-free, per-thread random
// number generator (splitmix64 seeding + xoshiro-style state advance) and
// the normally distributed samples the paper's workload generator needs
// for "local work ... picked from a normal distribution" (§6).
//
// math/rand is avoided on the hot path because its global source is
// locked and its per-goroutine sources allocate; benchmark loops here
// issue one sample per operation.
package xrand

import "math"

// State is a 64-bit xorshift* generator. The zero value is invalid; use
// New.
type State struct {
	s uint64
}

// New returns a generator seeded from seed via splitmix64, guaranteeing a
// non-zero internal state.
func New(seed uint64) *State {
	s := &State{}
	s.Seed(seed)
	return s
}

// Seed re-seeds the generator.
func (r *State) Seed(seed uint64) {
	// splitmix64 step; also guarantees non-zero state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z = z ^ (z >> 31)
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	r.s = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *State) Uint64() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *State) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a value uniformly distributed in [0, n). n must be > 0.
func (r *State) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here:
	// the tiny modulo bias is irrelevant for workload shaping.
	return int((r.Uint64() >> 11) % uint64(n))
}

// Float64 returns a value uniformly distributed in [0, 1).
func (r *State) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Norm returns a sample from the standard normal distribution using the
// Marsaglia polar method. It consumes a variable number of uniform
// samples but no heap memory.
func (r *State) Norm() float64 {
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

// NormDuration returns a normally distributed sample with the given mean
// and standard deviation, clamped to be non-negative. The paper's local
// work times ("around 0.1µs per operation on average", §6) are produced
// with this.
func (r *State) NormDuration(mean, stddev float64) float64 {
	d := mean + stddev*r.Norm()
	if d < 0 {
		return 0
	}
	return d
}
