// Package plainqueue is the Michael–Scott queue without the move-ready
// changes: linearization points are plain CASes and shared words are
// read with plain atomic loads instead of the helping read operation.
//
// It exists solely for ablation A1, quantifying the paper's claim that
// "the operations originally supported by the data objects keep their
// performance behavior" once scas and read are in place: benchmarks
// compare this package against msqueue under identical workloads.
package plainqueue

import (
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/word"
)

// Queue is a plain (non-composable) Michael–Scott queue.
type Queue struct {
	head word.Word
	_    pad.Pad56
	tail word.Word
	_    pad.Pad56
}

// New creates an empty queue.
func New(t *core.Thread) *Queue {
	q := &Queue{}
	s := t.AllocNode()
	if s == word.Nil {
		panic("plainqueue: node arena exhausted")
	}
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// Enqueue appends val.
func (q *Queue) Enqueue(t *core.Thread, val uint64) {
	ref := t.AllocNode()
	if ref == word.Nil { // a baseline has no failure result to report it with
		panic("plainqueue: node arena exhausted")
	}
	n := t.Node(ref)
	n.Val = val
	for {
		ltail := q.tail.Load()
		t.ProtectNode(core.SlotIns0, ltail)
		if q.tail.Load() != ltail {
			continue
		}
		tn := t.Node(ltail)
		lnext := tn.Next.Load()
		t.ProtectNode(core.SlotIns1, lnext) // hp2, as in the original MS+HP
		if q.tail.Load() != ltail {
			continue
		}
		if lnext != word.Nil {
			q.tail.CAS(ltail, lnext)
			continue
		}
		if tn.Next.CAS(word.Nil, ref) {
			q.tail.CAS(ltail, ref)
			t.ClearNode(core.SlotIns0)
			t.ClearNode(core.SlotIns1)
			return
		}
	}
}

// Dequeue removes the oldest value.
func (q *Queue) Dequeue(t *core.Thread) (uint64, bool) {
	for {
		lhead := q.head.Load()
		t.ProtectNode(core.SlotRem0, lhead)
		if q.head.Load() != lhead {
			continue
		}
		ltail := q.tail.Load()
		hn := t.Node(lhead)
		lnext := hn.Next.Load()
		t.ProtectNode(core.SlotRem1, lnext)
		if q.head.Load() != lhead {
			continue
		}
		if lnext == word.Nil {
			t.ClearNode(core.SlotRem0)
			t.ClearNode(core.SlotRem1)
			return 0, false
		}
		if lhead == ltail {
			q.tail.CAS(ltail, lnext)
			continue
		}
		val := t.Node(lnext).Val
		if q.head.CAS(lhead, lnext) {
			t.RetireNode(lhead)
			t.ClearNode(core.SlotRem0)
			t.ClearNode(core.SlotRem1)
			return val, true
		}
	}
}
