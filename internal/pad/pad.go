// Package pad provides cache-line padding helpers used to avoid false
// sharing between per-thread records and hot shared words.
//
// The padding size is fixed at 64 bytes, the cache-line size of every
// mainstream x86-64 and most ARM64 parts, including the Intel Core i7 950
// the paper's evaluation ran on.
package pad

// CacheLineSize is the assumed size of one cache line in bytes.
const CacheLineSize = 64

// Line is a full cache line of padding. Embed it between fields that are
// written by different threads.
type Line [CacheLineSize]byte

// Pad56 pads a single uint64 out to a full cache line when placed after it.
type Pad56 [CacheLineSize - 8]byte

// CeilPow2 rounds n up to a power of two, minimum 1 — the shared
// sizing helper for mask-indexed structures (shard and bucket tables).
func CeilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
