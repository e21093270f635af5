// Package integration holds cross-module tests: the retry/abort
// protocol of Algorithm 3, element conservation under contention, faults
// and telemetry, map growth and buffered moves. Move, MoveN, DrainN and
// TransferN over every ordered container pair — the sequential model,
// conservation, linearizability, exhaustion, a parked composition and
// the slot rule — are internal/core's TestConformance.
package integration

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{
		MaxThreads:    threads,
		ArenaCapacity: 1 << 18,
	})
}

func TestMoveQueueToStack(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	q.Enqueue(th, 42)
	v, ok := th.Move(q, s, 0, 0)
	if !ok || v != 42 {
		t.Fatalf("move: v=%d ok=%v", v, ok)
	}
	if q.Len(th) != 0 || s.Len(th) != 1 {
		t.Fatalf("lengths after move: q=%d s=%d", q.Len(th), s.Len(th))
	}
	if got, _ := s.Pop(th); got != 42 {
		t.Fatal("moved value corrupted")
	}
}

func TestMoveStackToQueue(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	s.Push(th, 7)
	s.Push(th, 8)
	if v, ok := th.Move(s, q, 0, 0); !ok || v != 8 {
		t.Fatalf("move should take the stack top: v=%d ok=%v", v, ok)
	}
	if v, ok := q.Dequeue(th); !ok || v != 8 {
		t.Fatalf("queue should hold the moved element: v=%d ok=%v", v, ok)
	}
	if v, _ := s.Pop(th); v != 7 {
		t.Fatal("stack bottom disturbed")
	}
}

func TestMoveQueueToQueue(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q1 := msqueue.New(th)
	q2 := msqueue.New(th)
	for i := uint64(1); i <= 5; i++ {
		q1.Enqueue(th, i)
	}
	for i := uint64(1); i <= 5; i++ {
		if v, ok := th.Move(q1, q2, 0, 0); !ok || v != i {
			t.Fatalf("move %d: v=%d ok=%v", i, v, ok)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		if v, ok := q2.Dequeue(th); !ok || v != i {
			t.Fatalf("FIFO order lost through moves: got %d want %d", v, i)
		}
	}
}

func TestMoveStackToStack(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	s1 := tstack.New(th)
	s2 := tstack.New(th)
	s1.Push(th, 1)
	s1.Push(th, 2)
	th.Move(s1, s2, 0, 0) // moves 2
	th.Move(s1, s2, 0, 0) // moves 1
	if v, _ := s2.Pop(th); v != 1 {
		t.Fatal("stack-to-stack move order")
	}
	if v, _ := s2.Pop(th); v != 2 {
		t.Fatal("stack-to-stack move order")
	}
}

func TestMoveFromEmptyFails(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	if _, ok := th.Move(q, s, 0, 0); ok {
		t.Fatal("move from empty queue must fail")
	}
	if _, ok := th.Move(s, q, 0, 0); ok {
		t.Fatal("move from empty stack must fail")
	}
	// Objects unusable afterwards would indicate descriptor leakage.
	q.Enqueue(th, 1)
	if v, ok := th.Move(q, s, 0, 0); !ok || v != 1 {
		t.Fatal("move after failed move broken")
	}
}

func TestMoveSameObjectPanics(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	q.Enqueue(th, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("same-object move must panic")
		}
	}()
	th.Move(q, q, 0, 0)
}

// failingTarget rejects every insert in its init-phase (like a full
// container): scas is never reached, so the move must abort by lines
// M15–M18 (the chain's reached flag).
type failingTarget struct{ id uint64 }

func (f *failingTarget) Insert(*core.Thread, uint64, uint64) bool { return false }
func (f *failingTarget) ObjectID() uint64                         { return f.id }

func TestMoveAbortsWhenTargetRejects(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	q.Enqueue(th, 11)
	s.Push(th, 22)

	ft := &failingTarget{id: rt.NextObjectID()}
	if _, ok := th.Move(q, ft, 0, 0); ok {
		t.Fatal("move into rejecting target must fail")
	}
	if q.Len(th) != 1 {
		t.Fatal("aborted move must leave the queue unchanged")
	}
	if _, ok := th.Move(s, ft, 0, 0); ok {
		t.Fatal("move into rejecting target must fail (stack)")
	}
	if s.Len(th) != 1 {
		t.Fatal("aborted move must leave the stack unchanged")
	}
	// Both sources still usable.
	if v, ok := th.Move(q, s, 0, 0); !ok || v != 11 {
		t.Fatal("source unusable after aborted move")
	}
}

// moveStress runs the conservation experiment: unique tokens distributed
// over two containers, threads randomly move between them and do
// pop+repush cycles; at the end every token must exist exactly once.
func moveStress(t *testing.T, mkA, mkB func(*core.Thread) core.MoveReady, threads, tokens, opsPer int) {
	rt := newRT(threads + 1)
	setup := rt.RegisterThread()
	a := mkA(setup)
	b := mkB(setup)
	for i := 0; i < tokens; i++ {
		if i%2 == 0 {
			a.Insert(setup, 0, uint64(i+1))
		} else {
			b.Insert(setup, 0, uint64(i+1))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 12345
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPer; i++ {
				switch next() % 4 {
				case 0:
					th.Move(a, b, 0, 0)
				case 1:
					th.Move(b, a, 0, 0)
				case 2:
					if v, ok := a.Remove(th, 0); ok {
						// Re-insert: the token stays in circulation.
						for !pick(next(), a, b).Insert(th, 0, v) {
						}
					}
				case 3:
					if v, ok := b.Remove(th, 0); ok {
						for !pick(next(), a, b).Insert(th, 0, v) {
						}
					}
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]int)
	count := 0
	for _, c := range []core.MoveReady{a, b} {
		for {
			v, ok := c.Remove(setup, 0)
			if !ok {
				break
			}
			seen[v]++
			count++
		}
	}
	if count != tokens {
		t.Fatalf("conservation violated: started with %d tokens, ended with %d", tokens, count)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("token %d appears %d times (duplication!)", v, n)
		}
	}
	if v, ok := a.Remove(setup, 0); ok {
		t.Fatalf("container A still holds %d after drain", v)
	}
}

func pick(r uint64, a, b core.MoveReady) core.MoveReady {
	if r&1 == 0 {
		return a
	}
	return b
}

func TestMoveStressQueueQueue(t *testing.T) {
	moveStress(t,
		func(th *core.Thread) core.MoveReady { return msqueue.New(th) },
		func(th *core.Thread) core.MoveReady { return msqueue.New(th) },
		8, 512, 4000)
}

func TestMoveStressStackStack(t *testing.T) {
	moveStress(t,
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		8, 512, 4000)
}

func TestMoveStressQueueStack(t *testing.T) {
	moveStress(t,
		func(th *core.Thread) core.MoveReady { return msqueue.New(th) },
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		8, 512, 4000)
}

// TestMoveStressSingleToken is the §7 worst case: one token bouncing
// between two stacks maximizes the remove-then-reinsert ABA that causes
// false helping; conservation must still hold.
func TestMoveStressSingleToken(t *testing.T) {
	moveStress(t,
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		8, 1, 8000)
}

// TestNormalOpsDuringMoves interleaves heavy plain enqueue/dequeue with
// moves, checking that values never vanish and the per-value accounting
// holds (the paper's claim that normal operations coexist with moves).
func TestNormalOpsDuringMoves(t *testing.T) {
	const movers, workers, per = 4, 4, 5000
	rt := newRT(movers + workers + 1)
	setup := rt.RegisterThread()
	q := msqueue.New(setup)
	s := tstack.New(setup)

	var wg sync.WaitGroup
	var produced, consumed sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < per; i++ {
				v := uint64(w+1)<<32 | uint64(i)
				produced.Store(v, true)
				q.Enqueue(th, v)
				if v2, ok := s.Pop(th); ok {
					if _, was := consumed.LoadOrStore(v2, true); was {
						t.Errorf("value %#x consumed twice", v2)
					}
				}
			}
			th.FlushMemory()
		}(w)
	}
	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < per; i++ {
				th.Move(q, s, 0, 0)
			}
			th.FlushMemory()
		}()
	}
	wg.Wait()

	// Drain both; every produced value must be in consumed ∪ leftovers,
	// exactly once.
	for {
		v, ok := q.Dequeue(setup)
		if !ok {
			break
		}
		if _, was := consumed.LoadOrStore(v, true); was {
			t.Fatalf("value %#x both consumed and still queued", v)
		}
	}
	for {
		v, ok := s.Pop(setup)
		if !ok {
			break
		}
		if _, was := consumed.LoadOrStore(v, true); was {
			t.Fatalf("value %#x both consumed and still stacked", v)
		}
	}
	missing := 0
	produced.Range(func(k, _ any) bool {
		if _, ok := consumed.Load(k); !ok {
			missing++
		}
		return true
	})
	if missing != 0 {
		t.Fatalf("%d produced values vanished", missing)
	}
}
