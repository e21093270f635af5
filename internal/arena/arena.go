// Package arena provides the slab-allocated node store that backs every
// concurrent object in this repository.
//
// The paper's implementation stores raw node pointers in shared words and
// relies on hazard pointers to delay reuse. Go's garbage collector does
// not allow tagged raw pointers, so nodes live in slabs owned by an Arena
// and shared words hold 64-bit references (see package word). The arena
// never returns memory to the runtime: a node index stays dereferenceable
// forever, which is exactly the property the paper's algorithms assume
// (a stale helper may CAS a word inside a recycled node; the CAS fails on
// the old-value check but the access itself must be safe).
package arena

import (
	"sync/atomic"

	"repro/internal/word"
)

// Node is one 32-byte container node; two share a cache line. Next is
// the only word other threads mutate; Val, Key and Aux are written by the
// node's owner before the node is published via a CAS and are read-only
// afterwards.
type Node struct {
	Next word.Word // may hold node refs or DCAS descriptor refs
	Aux  uint64    // lists order by (Key, Aux); unused by queue/stack
	Val  uint64
	Key  uint64
}

const (
	// SlabShift sets the slab size: 1<<SlabShift nodes (128 KiB) per slab.
	SlabShift = 12
	// SlabSize is the number of nodes per slab.
	SlabSize = 1 << SlabShift
	slabMask = SlabSize - 1

	// ReservedIndexes is the number of low node indexes that are never
	// allocated, so small even constants can never collide with a live
	// node reference.
	ReservedIndexes = 8
)

// maxLimit caps an arena's node limit at 2^28 nodes (8 GiB of nodes),
// so the slab directory New allocates is at most 512 KiB. A larger
// limit is clamped rather than given a second directory level: that is
// the smaller mechanism, and no workload comes near it.
const maxLimit = 1 << 28

// Arena is a grow-only slab store. Nothing on its path waits on another
// thread: the directory of slab pointers is sized once from the limit,
// a carver installs each missing slab its range needs by CAS, and
// dereference is one load of the directory entry.
type Arena struct {
	slabs []atomic.Pointer[[SlabSize]Node]
	spare atomic.Pointer[[SlabSize]Node] // a slab that lost an install, still zero
	next  atomic.Uint64                  // bump pointer (node index)
	limit uint64                         // hard cap on node indexes
}

// New creates an arena that can hold up to maxNodes nodes; the reserved
// prefix counts against that limit. maxNodes <= 0 selects a default of
// 1<<22 (~4M nodes, 128 MiB worst case, allocated lazily slab by slab);
// a limit above maxLimit is clamped to it.
func New(maxNodes int) *Arena {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	if maxNodes > maxLimit {
		maxNodes = maxLimit
	}
	a := &Arena{
		slabs: make([]atomic.Pointer[[SlabSize]Node], (maxNodes+slabMask)>>SlabShift),
		limit: uint64(maxNodes),
	}
	a.next.Store(ReservedIndexes)
	return a
}

// Node dereferences a node reference (as encoded by word.MakeNode;
// version tags and list marks are ignored). Index 0 and the reserved
// range are never valid.
func (a *Arena) Node(ref uint64) *Node {
	return a.NodeAt(word.NodeIndex(ref))
}

// NodeAt dereferences a bare arena index (as produced by Carve).
func (a *Arena) NodeAt(idx uint64) *Node {
	return &a.slabs[idx>>SlabShift].Load()[idx&slabMask]
}

// Allocated returns the number of node indexes carved so far, including
// the reserved prefix.
func (a *Arena) Allocated() uint64 { return a.next.Load() }

// Limit returns the maximum number of node indexes this arena can carve.
func (a *Arena) Limit() uint64 { return a.limit }

// Carve bump-allocates n fresh node indexes and appends them to dst,
// installing the slabs they fall in. When fewer than n indexes are left
// it appends nothing and leaves the arena unchanged: the caller's
// allocation fails (mm.Cache.Alloc returns word.Nil), so Allocated
// never passes Limit.
func (a *Arena) Carve(dst []uint64, n int) []uint64 {
	var start, end uint64
	for {
		start = a.next.Load()
		end = start + uint64(n)
		if end > a.limit {
			return dst
		}
		if a.next.CompareAndSwap(start, end) {
			break
		}
	}
	for s := start >> SlabShift; s<<SlabShift < end; s++ {
		a.install(s)
	}
	for idx := start; idx < end; idx++ {
		dst = append(dst, idx)
	}
	return dst
}

// install puts a slab into directory entry s unless one is there. Two
// carvers that need a missing slab at once each bring one and race to
// install it; the loser's slab, never published and so still zero,
// becomes the spare the next install takes instead of allocating, or is
// dropped when a spare is already kept. Dropping every loser's slab
// left one in fourteen slabs as garbage on a two-thread fill.
func (a *Arena) install(s uint64) {
	if a.slabs[s].Load() != nil {
		return
	}
	slab := a.spare.Swap(nil)
	if slab == nil {
		slab = new([SlabSize]Node)
	}
	if !a.slabs[s].CompareAndSwap(nil, slab) {
		a.spare.CompareAndSwap(nil, slab)
	}
}
