package integration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

// flakyTarget rejects its first n insert attempts in the init-phase
// (before any scas), then delegates to a real stack. It drives the
// MoveN retry path where a deeper operation's reached flag is stale.
type flakyTarget struct {
	s        *tstack.Stack
	rejects  int
	attempts int
}

func (f *flakyTarget) Insert(t *core.Thread, key, val uint64) bool {
	f.attempts++
	if f.attempts <= f.rejects {
		return false // init-phase failure: scas never reached
	}
	return f.s.Insert(t, key, val)
}

func (f *flakyTarget) ObjectID() uint64 { return f.s.ObjectID() }

func TestMoveRetriesAfterTransientTargetFailure(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	ft := &flakyTarget{s: tstack.New(th), rejects: 1}
	q.Enqueue(th, 5)

	// First move aborts (target init-failure), second succeeds.
	if _, ok := th.Move(q, ft, 0, 0); ok {
		t.Fatal("move must abort on target init failure")
	}
	if q.Len(th) != 1 {
		t.Fatal("aborted move changed the source")
	}
	if v, ok := th.Move(q, ft, 0, 0); !ok || v != 5 {
		t.Fatalf("retry move: %d,%v", v, ok)
	}
	if v, _ := ft.s.Pop(th); v != 5 {
		t.Fatal("element missing from target")
	}
}

func TestMoveNWithFlakyMiddleTarget(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	good1 := tstack.New(th)
	ft := &flakyTarget{s: tstack.New(th), rejects: 1}
	good2 := tstack.New(th)
	q.Enqueue(th, 9)

	if _, ok := th.MoveN(q, []core.Inserter{good1, ft, good2}, 0, []uint64{0, 0, 0}); ok {
		t.Fatal("MoveN must abort when a middle target rejects")
	}
	if q.Len(th) != 1 || good1.Len(th) != 0 || good2.Len(th) != 0 {
		t.Fatal("aborted MoveN left residue")
	}
	if v, ok := th.MoveN(q, []core.Inserter{good1, ft, good2}, 0, []uint64{0, 0, 0}); !ok || v != 9 {
		t.Fatalf("MoveN retry: %d,%v", v, ok)
	}
	for i, s := range []*tstack.Stack{good1, ft.s, good2} {
		if v, ok := s.Pop(th); !ok || v != 9 {
			t.Fatalf("target %d missing element: %d,%v", i, v, ok)
		}
	}
}

// TestMovePreservesThreadReuse: the same thread performs thousands of
// moves; descriptor recycling must keep them within its block.
func TestMovePreservesThreadReuse(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	q.Enqueue(th, 1)
	for i := 0; i < 20000; i++ {
		if _, ok := th.Move(q, s, 0, 0); !ok {
			t.Fatal("forward move failed")
		}
		if _, ok := th.Move(s, q, 0, 0); !ok {
			t.Fatal("backward move failed")
		}
	}
	// 40k moves cycle through the thread's fixed descriptor block: a
	// recycling failure would have hit the block's invariant panic.
	th.FlushMemory()
}
