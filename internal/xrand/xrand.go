// Package xrand provides a small, allocation-free, per-thread random
// number generator (splitmix64 seeding + xoshiro-style state advance).
//
// math/rand is avoided on the hot path because its global source is
// locked and its per-goroutine sources allocate; benchmark loops here
// issue one sample per operation.
package xrand

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
