package blocking

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18})
}

func TestQueueFIFO(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	q := NewQueue(th)
	for i := uint64(1); i <= 50; i++ {
		q.Enqueue(th, i)
	}
	if q.Len(th) != 50 {
		t.Fatalf("Len=%d", q.Len(th))
	}
	for i := uint64(1); i <= 50; i++ {
		if v, ok := q.Dequeue(th); !ok || v != i {
			t.Fatalf("dequeue %d: %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(th); ok {
		t.Fatal("empty dequeue must fail")
	}
}

func TestStackLIFO(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	s := NewStack(th)
	for i := uint64(1); i <= 50; i++ {
		s.Push(th, i)
	}
	if s.Len(th) != 50 {
		t.Fatalf("Len=%d", s.Len(th))
	}
	for i := uint64(50); i >= 1; i-- {
		if v, ok := s.Pop(th); !ok || v != i {
			t.Fatalf("pop %d: %d,%v", i, v, ok)
		}
	}
	if _, ok := s.Pop(th); ok {
		t.Fatal("empty pop must fail")
	}
}

func TestMoveBetweenBlockingObjects(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	q := NewQueue(th)
	s := NewStack(th)
	q.Enqueue(th, 9)
	if v, ok := Move(th, q, s, 0, 0); !ok || v != 9 {
		t.Fatalf("move: %d,%v", v, ok)
	}
	if q.Len(th) != 0 || s.Len(th) != 1 {
		t.Fatal("move did not transfer")
	}
	if _, ok := Move(th, q, s, 0, 0); ok {
		t.Fatal("move from empty must fail")
	}
	if v, ok := Move(th, s, q, 0, 0); !ok || v != 9 {
		t.Fatalf("reverse move: %d,%v", v, ok)
	}
}

func TestMoveSameObjectPanics(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	q := NewQueue(th)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Move(th, q, q, 0, 0)
}

// TestMoveNoDeadlock: movers transfer in both directions between two
// objects; lock ordering by ObjectID must prevent deadlock.
func TestMoveNoDeadlock(t *testing.T) {
	const workers = 8
	const opsPer = 5000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	q := NewQueue(setup)
	s := NewStack(setup)
	for i := uint64(1); i <= 100; i++ {
		q.Enqueue(setup, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < opsPer; i++ {
				if (i+w)%2 == 0 {
					Move(th, q, s, 0, 0)
				} else {
					Move(th, s, q, 0, 0)
				}
			}
		}(w)
	}
	wg.Wait()
	total := q.Len(setup) + s.Len(setup)
	if total != 100 {
		t.Fatalf("conservation: %d", total)
	}
}

// TestConcurrentMixed exercises queue and stack under contention.
func TestConcurrentMixed(t *testing.T) {
	const workers = 8
	const opsPer = 4000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	q := NewQueue(setup)
	s := NewStack(setup)
	var pushed, popped [workers]int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*2654435761 + 3
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPer; i++ {
				switch next() % 4 {
				case 0:
					q.Enqueue(th, next())
					pushed[w]++
				case 1:
					if _, ok := q.Dequeue(th); ok {
						popped[w]++
					}
				case 2:
					s.Push(th, next())
					pushed[w]++
				default:
					if _, ok := s.Pop(th); ok {
						popped[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var in, out int64
	for w := 0; w < workers; w++ {
		in += pushed[w]
		out += popped[w]
	}
	left := int64(q.Len(setup) + s.Len(setup))
	if in-out != left {
		t.Fatalf("balance %d-%d != %d", in, out, left)
	}
}

func TestObjectIDsDistinct(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	a, b := NewQueue(th), NewStack(th)
	if a.ObjectID() == b.ObjectID() {
		t.Fatal("object ids must be distinct")
	}
}
