package harrislist

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18, DescCapacity: 1 << 14})
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
