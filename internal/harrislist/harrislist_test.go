package harrislist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/word"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18})
}

func TestInsertRemoveContains(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	l := New(th)
	if !l.Insert(th, 5, 50) || !l.Insert(th, 1, 10) || !l.Insert(th, 9, 90) {
		t.Fatal("inserts must succeed")
	}
	if l.Insert(th, 5, 55) {
		t.Fatal("duplicate insert must fail")
	}
	if v, ok := l.Contains(th, 5); !ok || v != 50 {
		t.Fatalf("Contains(5) = %d,%v", v, ok)
	}
	if _, ok := l.Contains(th, 4); ok {
		t.Fatal("Contains(4) should fail")
	}
	if v, ok := l.Remove(th, 5); !ok || v != 50 {
		t.Fatalf("Remove(5) = %d,%v", v, ok)
	}
	if _, ok := l.Contains(th, 5); ok {
		t.Fatal("removed key still present")
	}
	if _, ok := l.Remove(th, 5); ok {
		t.Fatal("double remove must fail")
	}
	if got := l.Keys(th); len(got) != 2 || got[0] != 1 || got[1] != 9 {
		t.Fatalf("keys = %v", got)
	}
}

func TestSortedOrderInvariant(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	l := New(th)
	keys := []uint64{42, 7, 99, 3, 55, 18, 77, 1, 100, 64}
	for _, k := range keys {
		l.Insert(th, k, k*10)
	}
	got := l.Keys(th)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("list not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Fatalf("len=%d", len(got))
	}
}

// TestSequentialModelEquivalence drives the list and a map with the same
// random operations and compares observable behaviour (property test).
func TestSequentialModelEquivalence(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	f := func(ops []uint16) bool {
		l := New(th)
		model := map[uint64]uint64{}
		for i, op := range ops {
			key := uint64(op % 32)
			val := uint64(i)
			switch (op / 32) % 3 {
			case 0:
				_, exists := model[key]
				got := l.Insert(th, key, val)
				if got == exists {
					return false
				}
				if got {
					model[key] = val
				}
			case 1:
				want, exists := model[key]
				v, got := l.Remove(th, key)
				if got != exists || (got && v != want) {
					return false
				}
				delete(model, key)
			case 2:
				want, exists := model[key]
				v, got := l.Contains(th, key)
				if got != exists || (got && v != want) {
					return false
				}
			}
		}
		if l.Len(th) != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	const workers = 8
	const perWorker = 2000
	rt := newRT(workers + 1)
	var wg sync.WaitGroup
	var l *List
	var once sync.Once
	ready := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			once.Do(func() { l = New(th); close(ready) })
			<-ready
			base := uint64(w) * perWorker
			for i := uint64(0); i < perWorker; i++ {
				if !l.Insert(th, base+i, i) {
					t.Errorf("disjoint insert failed")
					return
				}
			}
			for i := uint64(0); i < perWorker; i += 2 {
				if _, ok := l.Remove(th, base+i); !ok {
					t.Errorf("remove of own key failed")
					return
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	th := rt.RegisterThread()
	if got := l.Len(th); got != workers*perWorker/2 {
		t.Fatalf("Len=%d want %d", got, workers*perWorker/2)
	}
	keys := l.Keys(th)
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("concurrent inserts broke ordering")
	}
}

// TestConcurrentSameKeyContention: workers fight over a tiny key space;
// invariant: a key is never present twice, and successful remove counts
// balance successful inserts.
func TestConcurrentSameKeyContention(t *testing.T) {
	const workers = 8
	const perWorker = 3000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	l := New(setup)
	var inserts, removes [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*2654435761 + 7
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < perWorker; i++ {
				key := next() % 8
				if next()&1 == 0 {
					if l.Insert(th, key, uint64(w)) {
						inserts[w]++
					}
				} else {
					if _, ok := l.Remove(th, key); ok {
						removes[w]++
					}
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	var ins, rem int64
	for w := 0; w < workers; w++ {
		ins += inserts[w]
		rem += removes[w]
	}
	left := int64(l.Len(setup))
	if ins-rem != left {
		t.Fatalf("balance: %d inserts - %d removes != %d present", ins, rem, left)
	}
	keys := l.Keys(setup)
	seen := map[uint64]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("key %d present twice", k)
		}
		seen[k] = true
	}
}

// pinned counts the distinct nodes the runtime's hazard slots publish:
// every index carved so far goes through one scan of a fresh cache, and
// the scan keeps exactly the protected ones. The scan hands the rest to
// that cache's free list, so this ends the runtime's use.
func pinned(rt *core.Runtime) int {
	c := rt.Manager().NewCache(rt.MaxThreads() - 1)
	for idx := uint64(arena.ReservedIndexes); idx < rt.Arena().Allocated(); idx++ {
		c.Retire(word.MakeNode(idx, 0))
	}
	c.Scan()
	return c.LocalRetired()
}

// TestListSlotsPinAtMostTwoPerSide: list operations leave their hazard
// slots published on return, and a search swaps the two slots of its
// side instead of re-publishing — so after any mix of operations, a
// thread publishes at most two nodes per side it used, and nothing in
// any other slot.
func TestListSlotsPinAtMostTwoPerSide(t *testing.T) {
	type op func(th *core.Thread, l *List, k uint64)
	insertSide := []op{
		func(th *core.Thread, l *List, k uint64) { l.Insert(th, k, k) },
		func(th *core.Thread, l *List, k uint64) {
			LinkAt(th, l.HeadWord(), k, 1, core.SlotInsAux, core.SlotIns0)
		},
	}
	removeSide := []op{
		func(th *core.Thread, l *List, k uint64) { l.Remove(th, k) },
		func(th *core.Thread, l *List, k uint64) { l.Contains(th, k) },
	}
	for _, tc := range []struct {
		name string
		ops  []op
		max  int
	}{
		{"insert side", insertSide, 2},
		{"remove side", removeSide, 2},
		{"both sides", append(append([]op{}, insertSide...), removeSide...), 4},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			// Replay the same sequence to several lengths: counting ends a
			// runtime, so each checkpoint gets its own.
			for _, steps := range []int{1, 3, 20, 300, 3000} {
				rt := newRT(2)
				th := rt.RegisterThread()
				l := New(th)
				for k := uint64(0); k < 64; k += 2 {
					l.Insert(th, k, k)
				}
				th.ClearNode(core.SlotInsAux) // the prefill's insert-side slots
				th.ClearNode(core.SlotIns0)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < steps; i++ {
					tc.ops[rng.Intn(len(tc.ops))](th, l, uint64(rng.Intn(64)))
				}
				if n := pinned(rt); n > tc.max {
					t.Fatalf("%s, seed %d, %d ops: %d nodes published, want at most %d",
						tc.name, seed, steps, n, tc.max)
				}
			}
		}
	}
}

// TestStaleSlotPinsUntilNextOperation: a node the thread retires itself
// stays published by the thread's own stale slot — a scan must not
// reclaim it — until the thread's next operation on that side searches
// past it; the first scan after that reclaims it. Removing the first,
// second, third and fourth node leaves it in either slot of the side.
// FlushMemory scans at once, below the retire threshold, and hands the
// thread's free nodes to the global stack, whose top segment its next
// AllocNode takes.
func TestStaleSlotPinsUntilNextOperation(t *testing.T) {
	for _, key := range []uint64{10, 20, 30, 40} {
		rt := core.NewRuntime(core.Config{MaxThreads: 1, ArenaCapacity: 1 << 12})
		th := rt.RegisterThread()
		l := New(th)
		for k := uint64(10); k <= 50; k += 10 {
			l.Insert(th, k, k)
		}
		// The inserts' searches left nodes in the insert-side slots, which
		// only the thread's next insert would overwrite.
		th.ClearNode(core.SlotInsAux)
		th.ClearNode(core.SlotIns0)
		x := th.Read(l.HeadWord())
		for th.Node(x).Key != key {
			x = word.ListUnmarked(th.Read(&th.Node(x).Next))
		}
		spare := th.AllocNode()
		// Remove unlinks x and retires it; the scan finds x still in one
		// of the remove-side slots.
		if _, ok := l.Remove(th, key); !ok {
			t.Fatalf("Remove(%d) failed", key)
		}
		th.FlushMemory()
		if got := th.AllocNode(); word.NodeIndex(got) == word.NodeIndex(x) {
			t.Fatalf("key %d: node reclaimed while its thread's slot still names it", key)
		} else {
			th.FreeNodeDirect(got)
		}
		// The next operation's search passes two nodes and so republishes
		// both remove-side slots; retiring spare runs the next scan.
		if _, ok := l.Contains(th, 50); !ok {
			t.Fatal("Contains(50) failed")
		}
		th.RetireNode(spare)
		th.FlushMemory()
		a, b := th.AllocNode(), th.AllocNode()
		if word.NodeIndex(x) != word.NodeIndex(a) && word.NodeIndex(x) != word.NodeIndex(b) {
			t.Fatalf("key %d: node not reclaimed by the first scan after the next operation", key)
		}
	}
}
