package verify

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harrislist"
	"repro/internal/msqueue"
	"repro/internal/tstack"
	"repro/internal/word"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18})
}

func TestQueueInvariantsClean(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	for i := uint64(0); i < 100; i++ {
		q.Enqueue(th, i)
	}
	for i := 0; i < 40; i++ {
		q.Dequeue(th)
	}
	head, tail := q.Anchors()
	r, n := Queue(rt.Arena(), head, tail)
	if !r.Ok() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if n != 60 {
		t.Fatalf("count=%d", n)
	}
}

func TestStackInvariantsClean(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	s := tstack.New(th)
	for i := uint64(0); i < 50; i++ {
		s.Push(th, i)
	}
	s.Pop(th)
	r, n := Stack(rt.Arena(), s.TopWord())
	if !r.Ok() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if n != 49 {
		t.Fatalf("count=%d", n)
	}
}

func TestListInvariantsClean(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	l := harrislist.New(th)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		l.Insert(th, k, k)
	}
	l.Remove(th, 3)
	r, n := List(rt.Arena(), l.HeadWord())
	if !r.Ok() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if n != 4 {
		t.Fatalf("count=%d", n)
	}
}

func TestDetectsDescriptorResidue(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	q.Enqueue(th, 1)
	head, tail := q.Anchors()
	// Forge a descriptor reference into head: the walker must flag it.
	old := head.Load()
	head.Store(word.MakeDesc(word.KindDCAS, 3, 9))
	r, _ := Queue(rt.Arena(), head, tail)
	if r.Ok() {
		t.Fatal("descriptor residue not detected")
	}
	head.Store(old)
	if r2, _ := Queue(rt.Arena(), head, tail); !r2.Ok() {
		t.Fatal("restored queue should verify")
	}
}

func TestDetectsCycle(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	s := tstack.New(th)
	s.Push(th, 1)
	s.Push(th, 2)
	// Create a cycle: bottom node points back to top.
	top := s.TopWord().Load()
	n := rt.Arena().Node(top)
	bottom := n.Next.Load()
	rt.Arena().Node(bottom).Next.Store(top)
	r, _ := Stack(rt.Arena(), s.TopWord())
	if r.Ok() {
		t.Fatal("cycle not detected")
	}
	if r.Err() == "" {
		t.Fatal("Err must render a violation")
	}
	rt.Arena().Node(bottom).Next.Store(word.Nil) // restore
}

func TestDetectsListDisorder(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	l := harrislist.New(th)
	l.Insert(th, 1, 1)
	l.Insert(th, 2, 2)
	// Corrupt: swap the keys so order breaks.
	first := l.HeadWord().Load()
	rt.Arena().Node(first).Key = 99
	r, _ := List(rt.Arena(), l.HeadWord())
	if r.Ok() {
		t.Fatal("key disorder not detected")
	}
}

// TestInvariantsAfterMoveStorm runs a heavy move mix, quiesces, and
// verifies every structure.
func TestInvariantsAfterMoveStorm(t *testing.T) {
	const workers = 6
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	q := msqueue.New(setup)
	s := tstack.New(setup)
	l := harrislist.New(setup)
	for i := uint64(1); i <= 300; i++ {
		q.Enqueue(setup, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 11
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < 4000; i++ {
				switch next() % 6 {
				case 0:
					th.Move(q, s, 0, 0)
				case 1:
					th.Move(s, q, 0, 0)
				case 2:
					th.Move(q, l, 0, next())
				case 3:
					th.Move(l, q, 0, 0) // RemoveMin-like via keyed? list Remove needs key
				case 4:
					if v, ok := s.Pop(th); ok {
						s.Push(th, v)
					}
				default:
					if v, ok := q.Dequeue(th); ok {
						q.Enqueue(th, v)
					}
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()

	head, tail := q.Anchors()
	rq, nq := Queue(rt.Arena(), head, tail)
	if !rq.Ok() {
		t.Fatalf("queue: %v", rq.Violations)
	}
	rs, ns := Stack(rt.Arena(), s.TopWord())
	if !rs.Ok() {
		t.Fatalf("stack: %v", rs.Violations)
	}
	rl, nl := List(rt.Arena(), l.HeadWord())
	if !rl.Ok() {
		t.Fatalf("list: %v", rl.Violations)
	}
	if nq+ns+nl != 300 {
		t.Fatalf("conservation: %d+%d+%d != 300", nq, ns, nl)
	}
}
