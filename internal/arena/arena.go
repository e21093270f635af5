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
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/word"
)

// Node is one 64-byte (cache-line sized) container node. Next is the only
// word other threads mutate; Val, Key and Aux are written by the node's
// owner before the node is published via a CAS and are read-only
// afterwards.
type Node struct {
	Next word.Word // may hold node refs or DCAS descriptor refs
	Aux  uint64    // lists order by (Key, Aux); unused by queue/stack
	Val  uint64
	Key  uint64
	_    [4]uint64
}

const (
	// SlabShift sets the slab size: 1<<SlabShift nodes per slab.
	SlabShift = 16
	// SlabSize is the number of nodes per slab.
	SlabSize = 1 << SlabShift
	slabMask = SlabSize - 1

	// ReservedIndexes is the number of low node indexes that are never
	// allocated, so small even constants can never collide with a live
	// node reference.
	ReservedIndexes = 8
)

// Arena is a grow-only slab store. Dereference is lock-free; growth takes
// a mutex but happens only when the bump pointer crosses a slab boundary.
type Arena struct {
	slabs  atomic.Pointer[[]*[SlabSize]Node]
	growMu sync.Mutex
	next   atomic.Uint64 // bump pointer (node index)
	limit  uint64        // hard cap on node indexes
}

// New creates an arena that can hold up to maxNodes nodes (rounded up to
// a whole slab). maxNodes <= 0 selects a default of 1<<22 (~4M nodes,
// 256 MiB worst case, allocated lazily slab by slab).
func New(maxNodes int) *Arena {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	if uint64(maxNodes) > word.MaxNodeIndex {
		maxNodes = int(word.MaxNodeIndex)
	}
	a := &Arena{limit: uint64(maxNodes)}
	a.next.Store(ReservedIndexes)
	empty := make([]*[SlabSize]Node, 0)
	a.slabs.Store(&empty)
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
	slabs := *a.slabs.Load()
	return &slabs[idx>>SlabShift][idx&slabMask]
}

// Allocated returns the number of node indexes carved so far, including
// the reserved prefix.
func (a *Arena) Allocated() uint64 { return a.next.Load() }

// Limit returns the maximum number of node indexes this arena can carve.
func (a *Arena) Limit() uint64 { return a.limit }

// Carve bump-allocates n fresh node indexes and appends them to dst,
// growing slabs as needed. It panics with *fault.ResourceError when the
// arena is exhausted — an undersized configuration or a leak. Carve runs
// strictly before any node is published, so core.Thread.Try can recover
// the panic into ErrResourceExhausted with shared state intact; callers
// outside Try keep the historical crash behavior.
func (a *Arena) Carve(dst []uint64, n int) []uint64 {
	start := a.next.Add(uint64(n)) - uint64(n)
	end := start + uint64(n)
	if end > a.limit {
		panic(&fault.ResourceError{Resource: "arena: node store", Capacity: a.limit, Hint: "ArenaCapacity"})
	}
	a.ensure(end)
	for idx := start; idx < end; idx++ {
		dst = append(dst, idx)
	}
	return dst
}

// ensure grows the slab table until index end-1 is dereferenceable.
func (a *Arena) ensure(end uint64) {
	needSlabs := int((end + slabMask) >> SlabShift)
	if len(*a.slabs.Load()) >= needSlabs {
		return
	}
	a.growMu.Lock()
	defer a.growMu.Unlock()
	cur := *a.slabs.Load()
	if len(cur) >= needSlabs {
		return
	}
	grown := make([]*[SlabSize]Node, needSlabs)
	copy(grown, cur)
	for i := len(cur); i < needSlabs; i++ {
		grown[i] = new([SlabSize]Node)
	}
	a.slabs.Store(&grown)
}
