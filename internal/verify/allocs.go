package verify

import (
	"math"
	"runtime"
)

// Mallocs runs fn warm times, then returns how many Go heap allocations
// ops further calls made. Allocation guards want 0 from it. Unlike
// testing.AllocsPerRun, which averages with integer division, it does
// not round one allocation in a few hundred calls down to 0.
//
// The warm-up should be long: Go fills a type assertion's call-site
// cache at random moments during its first few thousand calls with each
// dynamic type. That is a bounded, one-time allocation per call site and
// type, not steady state. The runtime also allocates by itself now and
// then, for example a new OS thread when the world restarts after
// ReadMemStats. So Mallocs counts up to three windows of ops calls and
// returns the least: an allocation fn makes in steady state shows in
// every window.
func Mallocs(warm, ops int, fn func()) uint64 {
	for i := 0; i < warm; i++ {
		fn()
	}
	least := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for w := 0; w < 3 && least > 0; w++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < ops; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
	}
	return least
}
