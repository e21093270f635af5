package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
)

type payload struct {
	ID   int
	Name string
}

func TestBoxPutTakePeek(t *testing.T) {
	b := repro.NewBox[payload]()
	h1 := b.Put(payload{1, "one"})
	h2 := b.Put(payload{2, "two"})
	if h1 == h2 {
		t.Fatal("handles must be distinct")
	}
	if got := b.Peek(h1); got.Name != "one" {
		t.Fatalf("Peek: %+v", got)
	}
	if got := b.Take(h2); got.ID != 2 {
		t.Fatalf("Take: %+v", got)
	}
	if got := b.Take(h1); got.ID != 1 {
		t.Fatalf("Take: %+v", got)
	}
	// Handles recycle.
	h3 := b.Put(payload{3, "three"})
	if b.Peek(h3).ID != 3 {
		t.Fatal("recycled handle broken")
	}
}

func TestTypedQueueStack(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[string]()
	q := repro.NewQueueOf[string](th, box)
	s := repro.NewStackOf[string](th, box)

	q.Enqueue(th, "hello")
	q.Enqueue(th, "world")
	if v, ok := q.Dequeue(th); !ok || v != "hello" {
		t.Fatalf("Dequeue: %q,%v", v, ok)
	}
	s.Push(th, "top")
	if v, ok := s.Pop(th); !ok || v != "top" {
		t.Fatalf("Pop: %q,%v", v, ok)
	}
	if _, ok := s.Pop(th); ok {
		t.Fatal("empty typed stack")
	}
}

func TestMoveTyped(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[payload]()
	q := repro.NewQueueOf[payload](th, box)
	s := repro.NewStackOf[payload](th, box)

	q.Enqueue(th, payload{42, "answer"})
	v, ok := repro.MoveTyped(th, q, s)
	if !ok || v.ID != 42 {
		t.Fatalf("MoveTyped: %+v,%v", v, ok)
	}
	got, ok := s.Pop(th)
	if !ok || got.Name != "answer" {
		t.Fatalf("value corrupted through move: %+v", got)
	}
}

func TestMoveTypedRequiresSharedBox(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	q := repro.NewQueueOf[int](th, repro.NewBox[int]())
	s := repro.NewStackOf[int](th, repro.NewBox[int]())
	q.Enqueue(th, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for distinct boxes")
		}
	}()
	repro.MoveTyped(th, q, s)
}

func TestTypedConcurrent(t *testing.T) {
	const workers = 4
	const per = 2000
	rt := repro.NewRuntime(repro.Config{MaxThreads: workers + 1})
	setup := rt.RegisterThread()
	box := repro.NewBox[string]()
	q := repro.NewQueueOf[string](setup, box)
	var wg sync.WaitGroup
	var got sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < per; i++ {
				q.Enqueue(th, fmt.Sprintf("%d-%d", w, i))
				if v, ok := q.Dequeue(th); ok {
					if _, dup := got.LoadOrStore(v, true); dup {
						t.Errorf("value %q delivered twice", v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for {
		v, ok := q.Dequeue(setup)
		if !ok {
			break
		}
		if _, dup := got.LoadOrStore(v, true); dup {
			t.Fatalf("value %q delivered twice", v)
		}
	}
	n := 0
	got.Range(func(_, _ any) bool { n++; return true })
	if n != workers*per {
		t.Fatalf("accounted %d of %d", n, workers*per)
	}
}

func TestTypedMap(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[payload]()
	hot := repro.NewMapOf[payload](th, box, 4)
	cold := repro.NewMapOf[payload](th, box, 4)

	if !hot.Put(th, 7, payload{7, "seven"}) {
		t.Fatal("Put failed")
	}
	if hot.Put(th, 7, payload{8, "dup"}) {
		t.Fatal("duplicate Put succeeded")
	}
	if v, ok := hot.Get(th, 7); !ok || v.Name != "seven" {
		t.Fatalf("Get: %+v,%v", v, ok)
	}
	// Atomic keyed move between typed maps sharing the box.
	if v, ok := repro.MoveKeyed(th, hot, cold, 7, 70); !ok || v.ID != 7 {
		t.Fatalf("MoveKeyed: %+v,%v", v, ok)
	}
	if _, ok := hot.Get(th, 7); ok {
		t.Fatal("entry still visible in source map")
	}
	if v, ok := cold.Get(th, 70); !ok || v.Name != "seven" {
		t.Fatalf("entry missing from target map: %+v,%v", v, ok)
	}
	if v, ok := cold.Delete(th, 70); !ok || v.ID != 7 {
		t.Fatalf("Delete: %+v,%v", v, ok)
	}
	if _, ok := cold.Delete(th, 70); ok {
		t.Fatal("second Delete succeeded")
	}
	// Growth keeps typed entries reachable.
	for i := uint64(100); i < 600; i++ {
		if !hot.Put(th, i, payload{int(i), "bulk"}) {
			t.Fatalf("bulk Put %d failed", i)
		}
	}
	if grows, _, _ := hot.M.Stats(); grows == 0 {
		t.Fatal("typed map never grew")
	}
	for i := uint64(100); i < 600; i++ {
		if v, ok := hot.Get(th, i); !ok || v.ID != int(i) {
			t.Fatalf("Get(%d) after grow: %+v,%v", i, v, ok)
		}
	}
}
