package mm

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/hazard"
	"repro/internal/pad"
	"repro/internal/verify"
	"repro/internal/word"
)

// newTestManager sizes its arena in nodes, not slabs, so the tests that
// use it hold at any slab size.
func newTestManager(threads int) (*Manager, *hazard.Domain) {
	a := arena.New(1 << 16)
	dom := hazard.New(threads, 4)
	m := New(a, dom)
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

// TestBalancedLoopStaysLocal: a thread that frees as often as it
// allocates (every Move does) bounces between its two lists and never
// touches the global stack — no spill, no refill — and allocates nothing
// from the Go heap.
func TestBalancedLoopStaysLocal(t *testing.T) {
	const ops = 1_000_000
	m, _ := newTestManager(1)
	c := m.NewCache(0)
	if n := verify.Mallocs(10*DefaultRetireThreshold, ops, func() { c.Retire(c.Alloc()) }); n != 0 {
		t.Errorf("%d Go heap allocations over %d Alloc+Retire pairs, want 0", n, ops)
	}
	if _, _, _, spills, refills := m.Stats(); spills != 0 || refills != 0 {
		t.Errorf("balanced loop: %d spills, %d refills, want 0 and 0", spills, refills)
	}
	if carved := m.Arena().Allocated() - arena.ReservedIndexes; carved != LocalListCap {
		t.Errorf("balanced loop carved %d nodes, want one list (%d)", carved, LocalListCap)
	}
}

// TestProducerConsumerThroughGlobal: one thread only retires, the other
// only allocates. Full lists still reach the consumer through the global
// stack (it stops carving), and no cache ever holds more than its two
// lists' worth of free nodes.
func TestProducerConsumerThroughGlobal(t *testing.T) {
	m, _ := newTestManager(2)
	producer, consumer := m.NewCache(0), m.NewCache(1)
	for i := 0; i < 100_000; i++ {
		producer.Retire(consumer.Alloc())
		for _, c := range []*Cache{producer, consumer} {
			if n := c.LocalFree(); n > 2*LocalListCap {
				t.Fatalf("op %d: cache %d holds %d free nodes, want <= %d", i, c.tid, n, 2*LocalListCap)
			}
		}
	}
	_, _, _, spills, refills := m.Stats()
	if spills == 0 || refills == 0 {
		t.Fatalf("spills=%d refills=%d: lists must travel producer → global → consumer", spills, refills)
	}
	// Carving happens only when the consumer and the global stack are both
	// empty; everything carved before it is then in the producer's two
	// lists and retire list.
	if carved, bound := m.Arena().Allocated()-arena.ReservedIndexes, uint64(3*LocalListCap+DefaultRetireThreshold); carved > bound {
		t.Fatalf("carved %d nodes for 100k handoffs, want <= %d: the consumer is not reusing spilled lists", carved, bound)
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

// TestExhaustedAllocScansOwnRetireList: a cache whose two lists, the
// global stack and the arena are empty scans its retire list before it
// fails, so nodes it retired below the scan threshold are not stranded.
// What a failed Alloc then guarantees is the package comment's: every
// node left in the caller's retire list is protected.
func TestExhaustedAllocScansOwnRetireList(t *testing.T) {
	a := arena.New(arena.ReservedIndexes + LocalListCap)
	dom := hazard.New(2, 4)
	m := New(a, dom)
	c := m.NewCache(0)
	refs := make([]uint64, LocalListCap)
	for i := range refs {
		if refs[i] = c.Alloc(); refs[i] == word.Nil {
			t.Fatalf("alloc %d of %d failed on a fresh arena of one list", i, LocalListCap)
		}
	}
	if ref := c.Alloc(); ref != word.Nil {
		t.Fatalf("the arena is carved dry, yet Alloc returned %#x", ref)
	}
	// Four nodes retired, far below the threshold: no scan has run.
	// Another thread protects the first; the other three are free.
	retired := map[uint64]bool{}
	for _, r := range refs[:4] {
		retired[word.NodeIndex(r)] = true
		c.Retire(r)
	}
	protected := word.NodeIndex(refs[0])
	dom.Protect(1, 0, protected)
	for i := 0; i < 3; i++ {
		ref := c.Alloc()
		if ref == word.Nil {
			t.Fatalf("alloc %d after the retires failed with %d unprotected nodes in the retire list", i, 3-i)
		}
		idx := word.NodeIndex(ref)
		if !retired[idx] || idx == protected {
			t.Fatalf("alloc %d returned node %d, want one of the unprotected retirees", i, idx)
		}
		delete(retired, idx)
	}
	if ref := c.Alloc(); ref != word.Nil {
		t.Fatalf("Alloc returned %#x with only a protected node left to free", ref)
	}
	if c.LocalRetired() != 1 {
		t.Fatalf("%d nodes retired after the failed Alloc, want the protected one", c.LocalRetired())
	}
}

func TestRetireTriggersScanAtThreshold(t *testing.T) {
	a := arena.New(1 << 10)
	dom := hazard.New(1, 2)
	m := New(a, dom)
	c := m.NewCache(0)
	refs := make([]uint64, 0, DefaultRetireThreshold)
	for range DefaultRetireThreshold {
		refs = append(refs, c.Alloc())
	}
	for _, r := range refs[1:] {
		c.Retire(r)
	}
	if _, _, scans, _, _ := m.Stats(); scans != 0 || c.LocalRetired() != DefaultRetireThreshold-1 {
		t.Fatalf("%d scans below the threshold, %d retired", scans, c.LocalRetired())
	}
	c.Retire(refs[0])
	if c.LocalRetired() != 0 {
		t.Fatalf("retire threshold should have triggered a scan, %d left", c.LocalRetired())
	}
	_, frees, scans, _, _ := m.Stats()
	if frees != DefaultRetireThreshold || scans != 1 {
		t.Fatalf("stats: frees=%d scans=%d", frees, scans)
	}
}

func TestFlushPublishesEverything(t *testing.T) {
	m, _ := newTestManager(2)
	c := m.NewCache(0)
	const n = LocalListCap + LocalListCap/2 // one full list and half of the other
	refs := make([]uint64, n)
	for i := range refs {
		refs[i] = c.Alloc()
	}
	for _, r := range refs {
		c.Retire(r)
	}
	c.Flush()
	if c.LocalRetired() != 0 || c.LocalFree() != 0 {
		t.Fatalf("flush left retired=%d free=%d", c.LocalRetired(), c.LocalFree())
	}
	if got := m.GlobalSegments(); got != 2 {
		t.Fatalf("flush published %d lists, want both (2)", got)
	}
	// Another thread gets every flushed node without carving.
	carved := m.Arena().Allocated()
	other := m.NewCache(1)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		idx := word.NodeIndex(other.Alloc())
		if seen[idx] {
			t.Fatal("node handed out twice")
		}
		seen[idx] = true
	}
	if m.Arena().Allocated() != carved || m.GlobalSegments() != 0 {
		t.Fatalf("carved %d more nodes, %d lists left: the flushed lists were not reused",
			m.Arena().Allocated()-carved, m.GlobalSegments())
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
