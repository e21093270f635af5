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

// mustPanic fails the test unless f panics with exactly msg.
func mustPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != msg {
			t.Fatalf("panic %v, want %q", r, msg)
		}
	}()
	f()
}

// TestSwapHeadsOf: three typed stacks rotate their tops through the
// shared Box (stack i takes stack i-1's top); a rotation over an
// empty stack changes none of them; stacks over two Boxes panic.
func TestSwapHeadsOf(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[payload]()
	ss := make([]*repro.StackOf[payload], 4)
	for i := range ss {
		ss[i] = repro.NewStackOf[payload](th, box)
	}
	for i, name := range []string{"a", "b", "c"} {
		ss[i].Push(th, payload{i, "under-" + name})
		ss[i].Push(th, payload{i, name})
	}
	if !repro.SwapHeadsOf(th, ss[0], ss[1], ss[2]) {
		t.Fatal("SwapHeadsOf over three non-empty stacks failed")
	}
	if repro.SwapHeadsOf(th, ss[0], ss[3]) {
		t.Fatal("SwapHeadsOf over an empty stack succeeded")
	}
	for i, want := range []string{"c", "a", "b", "under-a", "under-b", "under-c"} {
		if got, ok := ss[i%3].Pop(th); !ok || got.Name != want {
			t.Fatalf("stack %d pop %d: %+v,%v, want %q", i%3, i/3, got, ok, want)
		}
	}
	if _, ok := ss[3].Pop(th); ok {
		t.Fatal("the failed rotation pushed onto the empty stack")
	}
	other := repro.NewStackOf[payload](th, repro.NewBox[payload]())
	mustPanic(t, "repro: SwapHeadsOf requires stacks sharing one Box", func() {
		repro.SwapHeadsOf(th, ss[0], other)
	})
}

// TestTransferKeysOf: two keyed values cross between typed maps in one
// step and come back through the shared Box in key order; a transfer
// with an absent source key or an occupied target key changes neither
// map; maps over two Boxes panic.
func TestTransferKeysOf(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[payload]()
	hot := repro.NewMapOf[payload](th, box, 64)
	cold := repro.NewMapOf[payload](th, box, 64)
	for _, k := range []uint64{1, 2, 3} {
		hot.Put(th, k, payload{int(k), fmt.Sprint("v", k)})
	}
	cold.Put(th, 30, payload{30, "v30"})
	for _, fail := range [][2][]uint64{
		{{1, 9}, {10, 20}}, // 9 is absent from hot
		{{1, 3}, {10, 30}}, // 30 is occupied in cold
	} {
		if cold.M.SameChain(fail[1][0], fail[1][1]) {
			t.Fatalf("target keys %v share a bucket; the call could fail for that alone", fail[1])
		}
		if vs, ok := repro.TransferKeysOf(th, hot, cold, fail[0], fail[1]); ok || vs != nil {
			t.Fatalf("TransferKeysOf%v = %v,%v, want nil,false", fail, vs, ok)
		}
	}
	vs, ok := repro.TransferKeysOf(th, hot, cold, []uint64{1, 2}, []uint64{10, 20})
	if !ok || len(vs) != 2 || vs[0].Name != "v1" || vs[1].Name != "v2" {
		t.Fatalf("TransferKeysOf = %+v,%v, want [v1 v2],true", vs, ok)
	}
	if v, ok := hot.Get(th, 3); !ok || v.Name != "v3" {
		t.Fatalf("hot[3] = %+v,%v, want v3", v, ok)
	}
	for _, k := range []uint64{1, 2, 9} {
		if _, ok := hot.Get(th, k); ok {
			t.Fatalf("hot still holds key %d", k)
		}
	}
	for k, want := range map[uint64]string{10: "v1", 20: "v2", 30: "v30"} {
		if v, ok := cold.Get(th, k); !ok || v.Name != want {
			t.Fatalf("cold[%d] = %+v,%v, want %q", k, v, ok, want)
		}
	}
	other := repro.NewMapOf[payload](th, repro.NewBox[payload](), 64)
	mustPanic(t, "repro: TransferKeysOf requires maps sharing one Box", func() {
		repro.TransferKeysOf(th, hot, other, []uint64{3}, []uint64{3})
	})
}

// TestDrainTyped: a drain moves a typed queue's values to a typed stack
// in FIFO order through the shared Box and stops when the queue runs
// dry; a drain of the empty queue changes neither; containers over two
// Boxes panic.
func TestDrainTyped(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2})
	th := rt.RegisterThread()
	box := repro.NewBox[string]()
	q := repro.NewQueueOf[string](th, box)
	s := repro.NewStackOf[string](th, box)
	for _, v := range []string{"a", "b", "c"} {
		q.Enqueue(th, v)
	}
	if got := repro.DrainTyped(th, q, s, 5); fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("DrainTyped = %q, want [a b c]", got)
	}
	if got := repro.DrainTyped(th, q, s, 5); len(got) != 0 {
		t.Fatalf("DrainTyped of an empty queue = %q", got)
	}
	for _, want := range []string{"c", "b", "a"} {
		if v, ok := s.Pop(th); !ok || v != want {
			t.Fatalf("Pop = %q,%v, want %q", v, ok, want)
		}
	}
	if _, ok := s.Pop(th); ok {
		t.Fatal("the empty drain pushed a value")
	}
	other := repro.NewStackOf[string](th, repro.NewBox[string]())
	mustPanic(t, "repro: DrainTyped requires containers sharing one Box", func() {
		repro.DrainTyped(th, q, other, 1)
	})
}
