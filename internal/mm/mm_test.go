package mm

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/word"
)

func newTestManager(threads int) (*Manager, *hazard.Domain) {
	a := arena.New(arena.SlabSize * 4)
	dom := hazard.New(threads, 4)
	m := New(a, dom, Config{})
	return m, dom
}

func TestAllocResetsNode(t *testing.T) {
	m, _ := newTestManager(1)
	c := m.NewCache(0)
	ref := c.Alloc()
	n := m.Arena().Node(ref)
	n.Val, n.Key = 7, 8
	n.Next.Store(123)
	c.FreeDirect(ref)
	ref2 := c.Alloc()
	if ref2 != ref {
		t.Fatalf("expected LIFO local reuse, got %#x then %#x", ref, ref2)
	}
	n2 := m.Arena().Node(ref2)
	if n2.Val != 0 || n2.Key != 0 || n2.Next.Load() != word.Nil {
		t.Fatal("Alloc must reset node fields")
	}
}

func TestLocalListSpillsAt200(t *testing.T) {
	m, _ := newTestManager(1)
	c := m.NewCache(0)
	refs := make([]uint64, 0, LocalListCap+50)
	for i := 0; i < LocalListCap+50; i++ {
		refs = append(refs, c.Alloc())
	}
	for _, r := range refs {
		c.FreeDirect(r)
	}
	if m.GlobalSegments() == 0 {
		t.Fatal("freeing >200 nodes must spill a segment to the global stack")
	}
	if c.LocalFree() >= LocalListCap {
		t.Fatalf("local free list should stay under cap, has %d", c.LocalFree())
	}
}

func TestGlobalSegmentSharing(t *testing.T) {
	m, _ := newTestManager(2)
	c0 := m.NewCache(0)
	c1 := m.NewCache(1)
	// Thread 0 frees enough to spill.
	var refs []uint64
	for i := 0; i < LocalListCap; i++ {
		refs = append(refs, c0.Alloc())
	}
	for _, r := range refs {
		c0.FreeDirect(r)
	}
	if m.GlobalSegments() == 0 {
		t.Fatal("expected a spilled segment")
	}
	carvedBefore := m.Arena().Allocated()
	// Thread 1 allocates; it should refill from the global stack, not
	// carve fresh nodes.
	seen := make(map[uint64]bool)
	for i := 0; i < LocalListCap-1; i++ {
		r := c1.Alloc()
		if seen[word.NodeIndex(r)] {
			t.Fatal("node handed out twice")
		}
		seen[word.NodeIndex(r)] = true
	}
	if m.Arena().Allocated() != carvedBefore {
		t.Fatal("thread 1 should have reused spilled nodes instead of carving")
	}
}

func TestRetireHoldsProtectedNodes(t *testing.T) {
	m, dom := newTestManager(2)
	c := m.NewCache(0)
	ref := c.Alloc()
	idx := word.NodeIndex(ref)
	dom.Protect(1, 0, idx) // another thread protects it
	c.Retire(ref)
	c.Scan()
	if c.LocalRetired() != 1 {
		t.Fatal("protected node must stay retired")
	}
	// Nothing may re-allocate it.
	for i := 0; i < 50; i++ {
		if word.NodeIndex(c.Alloc()) == idx {
			t.Fatal("protected node was reallocated")
		}
	}
	dom.Clear(1, 0)
	c.Scan()
	if c.LocalRetired() != 0 {
		t.Fatal("unprotected node must be freed by scan")
	}
}

func TestRetireTriggersScanAtThreshold(t *testing.T) {
	a := arena.New(arena.SlabSize)
	dom := hazard.New(1, 2)
	m := New(a, dom, Config{RetireThreshold: 8})
	c := m.NewCache(0)
	refs := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		refs = append(refs, c.Alloc())
	}
	for _, r := range refs {
		c.Retire(r)
	}
	if c.LocalRetired() != 0 {
		t.Fatalf("retire threshold should have triggered a scan, %d left", c.LocalRetired())
	}
	_, frees, scans, _, _ := m.Stats()
	if frees != 8 || scans == 0 {
		t.Fatalf("stats: frees=%d scans=%d", frees, scans)
	}
}

func TestFlushPublishesEverything(t *testing.T) {
	m, _ := newTestManager(1)
	c := m.NewCache(0)
	for i := 0; i < 10; i++ {
		c.Retire(c.Alloc())
	}
	c.Flush()
	if c.LocalRetired() != 0 || c.LocalFree() != 0 {
		t.Fatalf("flush left retired=%d free=%d", c.LocalRetired(), c.LocalFree())
	}
	if m.GlobalSegments() == 0 {
		t.Fatal("flush must publish the free list globally")
	}
}

// TestNoDoubleHandout stresses alloc/free across threads and asserts a
// node is never owned by two threads at once.
func TestNoDoubleHandout(t *testing.T) {
	const workers = 4
	const rounds = 20000
	m, _ := newTestManager(workers)
	owners := make([]map[uint64]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		owners[w] = make(map[uint64]bool)
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := m.NewCache(tid)
			held := make([]uint64, 0, 64)
			for i := 0; i < rounds; i++ {
				if i%3 != 2 || len(held) == 0 {
					r := c.Alloc()
					n := m.Arena().Node(r)
					// Claim the node; a concurrent owner would race here
					// and the final uniqueness check below would differ.
					n.Key = uint64(tid)<<32 | uint64(i)
					held = append(held, r)
				} else {
					r := held[len(held)-1]
					held = held[:len(held)-1]
					c.FreeDirect(r)
				}
			}
			for _, r := range held {
				owners[tid][word.NodeIndex(r)] = true
			}
		}(w)
	}
	wg.Wait()
	all := make(map[uint64]int)
	for w := 0; w < workers; w++ {
		for idx := range owners[w] {
			all[idx]++
		}
	}
	for idx, cnt := range all {
		if cnt > 1 {
			t.Fatalf("node %d held by %d threads at end", idx, cnt)
		}
	}
}

// TestStatsSumOwnerCounters: the per-node counters live in the caches,
// written by their owners alone; once the owners are done Stats must
// account for every Alloc, Retire and FreeDirect exactly.
func TestStatsSumOwnerCounters(t *testing.T) {
	const workers = 4
	const rounds = 5000
	m, _ := newTestManager(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := m.NewCache(tid)
			for i := 0; i < rounds+tid; i++ { // a different count per thread
				r := c.Alloc()
				if i%3 == 0 {
					c.FreeDirect(r)
				} else {
					c.Retire(r)
				}
			}
			c.Flush()
			if c.LocalRetired() != 0 {
				t.Errorf("thread %d: %d nodes still retired with no hazard published", tid, c.LocalRetired())
			}
		}(w)
	}
	wg.Wait()
	want := uint64(workers*rounds + workers*(workers-1)/2)
	allocs, frees, scans, spills, _ := m.Stats()
	if allocs != want || frees != want {
		t.Fatalf("Stats: allocs=%d frees=%d, want %d each", allocs, frees, want)
	}
	if scans == 0 || spills == 0 {
		t.Fatalf("Stats: scans=%d spills=%d, want both > 0", scans, spills)
	}
}

// TestLayout: nothing Alloc/Retire write may share a line with another
// thread's cache or with the manager's shared words, wherever the
// allocator puts a Cache; and the manager's own shared words stay off
// its read-only header.
func TestLayout(t *testing.T) {
	var c Cache
	first, last := unsafe.Offsetof(c.m), unsafe.Offsetof(c.frees)+unsafe.Sizeof(c.frees)
	if first < pad.CacheLineSize || unsafe.Sizeof(c)-last < pad.CacheLineSize {
		t.Errorf("Cache fields [%d,%d) of %d bytes: want a full line of padding on both sides",
			first, last, unsafe.Sizeof(c))
	}
	var m Manager
	header := unsafe.Offsetof(m.caches) + unsafe.Sizeof(m.caches)
	for name, off := range map[string]uintptr{
		"global": unsafe.Offsetof(m.global), "scans": unsafe.Offsetof(m.scans),
		"spills": unsafe.Offsetof(m.spills), "refills": unsafe.Offsetof(m.refills),
	} {
		if off < header+pad.CacheLineSize {
			t.Errorf("Manager.%s at %d is within a line of the header ending at %d", name, off, header)
		}
	}
}
