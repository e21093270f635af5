// Package integration holds cross-module tests: the retry/abort
// protocol of Algorithm 3, one token bouncing between two stacks, faults
// and telemetry, map growth and buffered moves. Move, MoveN, DrainN and
// TransferN over every ordered container pair — the sequential model
// with lookups, conservation under opposing compositions, map counts,
// linearizability, exhaustion, a parked composition and the slot rule —
// are internal/core's TestConformance.
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

// TestMoveStressSingleToken is the §7 worst case: one token bouncing
// between two stacks maximizes the remove-then-reinsert ABA that causes
// false helping; conservation must still hold.
func TestMoveStressSingleToken(t *testing.T) {
	moveStress(t,
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		func(th *core.Thread) core.MoveReady { return tstack.New(th) },
		8, 1, 8000)
}
