package integration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

// probeTarget records whether the thread was mid-move when its Insert
// ran, then delegates to a real stack — verifying that Move runs the
// target's Insert inside the move (Algorithm 3, M16).
type probeTarget struct {
	s        *tstack.Stack
	inFlight []bool
}

func (p *probeTarget) Insert(t *core.Thread, key, val uint64) bool {
	p.inFlight = append(p.inFlight, t.MoveInFlight())
	return p.s.Insert(t, key, val)
}

func (p *probeTarget) ObjectID() uint64 { return p.s.ObjectID() }

func TestInsertRunsInsideMoveContext(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	pt := &probeTarget{s: tstack.New(th)}
	q.Enqueue(th, 1)

	if _, ok := th.Move(q, pt, 0, 0); !ok {
		t.Fatal("move failed")
	}
	if len(pt.inFlight) == 0 || !pt.inFlight[0] {
		t.Fatal("target Insert must observe the move in flight (desc ≠ 0)")
	}
	if th.MoveInFlight() {
		t.Fatal("move state must be cleared after Move returns")
	}
	// A plain insert into the same target sees no move.
	pt.inFlight = nil
	pt.Insert(th, 0, 2)
	if pt.inFlight[0] {
		t.Fatal("plain insert must not observe a move in flight")
	}
}

// nestedMover tries to start a move from inside a move's insert; the
// runtime must reject it (one descriptor per thread, as in the paper's
// thread-local desc).
type nestedMover struct {
	s     *tstack.Stack
	inner *tstack.Stack
	src   *msqueue.Queue
}

func (n *nestedMover) Insert(t *core.Thread, key, val uint64) bool {
	t.Move(n.src, n.inner, 0, 0) // must panic
	return n.s.Insert(t, key, val)
}

func (n *nestedMover) ObjectID() uint64 { return n.s.ObjectID() }

func TestNestedMovePanics(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	q2 := msqueue.New(th)
	q.Enqueue(th, 1)
	q2.Enqueue(th, 2)
	nm := &nestedMover{s: tstack.New(th), inner: tstack.New(th), src: q2}
	defer func() {
		if recover() == nil {
			t.Fatal("nested move must panic")
		}
	}()
	th.Move(q, nm, 0, 0)
}

// TestMoveStateClearedAfterAbort: after an aborted move the thread must
// be reusable with no residual descriptor.
func TestMoveStateClearedAfterAbort(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	ft := &failingTarget{id: rt.NextObjectID()}
	q.Enqueue(th, 1)
	if _, ok := th.Move(q, ft, 0, 0); ok {
		t.Fatal("move should abort")
	}
	if th.MoveInFlight() {
		t.Fatal("abort left move state behind")
	}
	// Plain operations still behave.
	if v, ok := q.Dequeue(th); !ok || v != 1 {
		t.Fatal("queue unusable after aborted move")
	}
	q.Enqueue(th, 2)
	s := tstack.New(th)
	if v, ok := th.Move(q, s, 0, 0); !ok || v != 2 {
		t.Fatal("thread unusable after aborted move")
	}
}
