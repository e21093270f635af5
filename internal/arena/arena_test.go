package arena

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/word"
)

// TestNodeAndSlabSize pins the node store's footprint: four live words
// per node, two nodes to a line, and a slab of at most 128 KiB.
func TestNodeAndSlabSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 32 {
		t.Errorf("Node is %d bytes, want 32", got)
	}
	if got := SlabSize * unsafe.Sizeof(Node{}); got > 128<<10 {
		t.Errorf("a slab is %d bytes, want at most 128 KiB", got)
	}
}

func TestCarveProducesDistinctDereferenceableNodes(t *testing.T) {
	a := New(SlabSize * 3)
	refs := a.Carve(nil, 1000)
	if len(refs) != 1000 {
		t.Fatalf("got %d refs", len(refs))
	}
	seen := make(map[uint64]bool)
	for _, idx := range refs {
		if idx < ReservedIndexes {
			t.Fatalf("carved reserved index %d", idx)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		n := a.NodeAt(idx)
		n.Val = idx // touch the memory
	}
	for _, idx := range refs {
		if a.NodeAt(idx).Val != idx {
			t.Fatal("node memory not stable across growth")
		}
	}
}

func TestCarveAcrossSlabBoundary(t *testing.T) {
	a := New(SlabSize * 4)
	var refs []uint64
	for len(refs) < SlabSize+100 {
		refs = a.Carve(refs, 777)
	}
	last := refs[len(refs)-1]
	a.NodeAt(last).Key = 42
	if a.NodeAt(last).Key != 42 {
		t.Fatal("node across slab boundary not addressable")
	}
}

func TestNodeDerefByRefWithTag(t *testing.T) {
	a := New(0)
	refs := a.Carve(nil, 1)
	idx := refs[0]
	a.NodeAt(idx).Val = 99
	tagged := word.MakeNode(idx, 12345)
	if a.Node(tagged).Val != 99 {
		t.Fatal("deref must ignore version tags")
	}
}

// TestExhaustionCarvesNothing: a carve past the limit appends nothing
// and leaves the arena as it was, so a smaller carve that still fits
// succeeds and Allocated never passes Limit.
func TestExhaustionCarvesNothing(t *testing.T) {
	a := New(64) // the limit is exact: 64 indexes, the reserved prefix included
	a.Carve(nil, 64-ReservedIndexes-1)
	if got := a.Carve([]uint64{7}, 2); len(got) != 1 || got[0] != 7 {
		t.Fatalf("carve past the limit returned %v", got)
	}
	if a.Allocated() != 63 {
		t.Fatalf("failed carve moved Allocated to %d", a.Allocated())
	}
	if got := a.Carve(nil, 1); len(got) != 1 || got[0] != 63 {
		t.Fatalf("last index: %v", got)
	}
	if got := a.Carve(nil, 1); len(got) != 0 || a.Allocated() != a.Limit() {
		t.Fatalf("full arena carved %v, Allocated %d", got, a.Allocated())
	}
}

func TestConcurrentCarveYieldsDisjointRanges(t *testing.T) {
	const workers = 8
	const per = 5000
	a := New(workers*per + ReservedIndexes) // exactly enough, at any slab size
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var refs []uint64
			for i := 0; i < per/100; i++ {
				refs = a.Carve(refs, 100)
			}
			out[w] = refs
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, refs := range out {
		for _, r := range refs {
			if seen[r] {
				t.Fatalf("index %d handed to two workers", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("expected %d distinct indexes, got %d", workers*per, len(seen))
	}
}

func TestAllocatedAndLimit(t *testing.T) {
	a := New(SlabSize)
	if a.Allocated() != ReservedIndexes {
		t.Fatalf("fresh arena should report the reserved prefix, got %d", a.Allocated())
	}
	a.Carve(nil, 10)
	if a.Allocated() != ReservedIndexes+10 {
		t.Fatalf("Allocated=%d", a.Allocated())
	}
	if a.Limit() != SlabSize {
		t.Fatalf("Limit=%d", a.Limit())
	}
}

// TestConcurrentCarveAcrossSlabs has four goroutines carve small batches
// through twenty slabs at once, so the slab table is regrown under them
// again and again: every index is handed out once, and every node keeps
// what its carver wrote while the table was replaced.
func TestConcurrentCarveAcrossSlabs(t *testing.T) {
	const workers = 4
	const per = 5 * SlabSize
	a := New(workers*per + ReservedIndexes)
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var refs []uint64
			for len(refs) < per {
				n := len(refs)
				refs = a.Carve(refs, 64)
				for _, idx := range refs[n:] {
					a.NodeAt(idx).Val = idx
				}
			}
			out[w] = refs
		}(w)
	}
	wg.Wait()
	if slabs := len(*a.slabs.Load()); slabs < 17 {
		t.Fatalf("carve crossed %d slab boundaries, want at least 16", slabs-1)
	}
	seen := make(map[uint64]bool, workers*per)
	for _, refs := range out {
		for _, idx := range refs {
			if seen[idx] {
				t.Fatalf("index %d handed out twice", idx)
			}
			seen[idx] = true
			if got := a.NodeAt(idx).Val; got != idx {
				t.Fatalf("node %d reads %d: a write was lost across a slab-table grow", idx, got)
			}
		}
	}
	if len(seen) != workers*per {
		t.Fatalf("expected %d distinct indexes, got %d", workers*per, len(seen))
	}
}
