// Package msqueue implements the lock-free FIFO queue of Michael and
// Scott [18] made move-ready per §5.1 of the paper (Algorithm 5):
//
//   - the linearization-point CASes (lines Q14 and Q34) are replaced by
//     scas,
//   - every read of a word that can take part in a DCAS goes through the
//     read operation: head (Q23) and a node's next (Q8, Q26),
//   - enqueue handles the ABORT result by freeing its node (Q15–Q17),
//     and fails before its loop when the arena has no node for it,
//   - dequeue also handles ABORT, per the bracketed lines of Algorithm 2,
//     because generic move targets (unlike the queue itself) can fail.
//
// The read operation and scas run at the call site in their plain case,
// so an operation outside a composition costs what the plain queue's
// does: a read is a load and a word.IsDesc test, calling Thread.Read
// only for a descriptor, and an scas is a plain CAS unless
// Thread.MoveInFlight (lines M20–M21, M38–M39). Two kinds of read need no guard. Tail (Q6, Q7, Q10, Q25)
// is swung by plain CAS alone (Q12, Q19, Q31) and no composition
// captures it, so it never holds a descriptor. A revalidation compares
// head with a plain value it read before; a descriptor never equals
// one, so the check fails and the retry's guarded read helps it.
//
// The queue is a move-candidate (Lemma 8): dequeue and enqueue are
// linearizable [18]; separate hazard-pointer slot sets let insert and
// remove succeed simultaneously (requirement 2); both linearization
// points are successful CASes on pointer words by the invoking process
// (requirement 3); and the dequeued value is read on line Q33, before
// the linearization point (requirement 4).
package msqueue

import (
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/word"
)

// Queue is a move-ready Michael–Scott queue holding uint64 values.
// Create instances with New; the zero value is not usable.
type Queue struct {
	head word.Word
	_    pad.Pad56
	tail word.Word
	_    pad.Pad56
	id   uint64
}

var _ core.MoveReady = (*Queue)(nil)

// New creates an empty queue with its sentinel node. The creating thread
// pays for one node allocation; New panics when the arena has none.
func New(t *core.Thread) *Queue {
	q := &Queue{id: t.Runtime().NextObjectID()}
	sentinel := t.AllocNode()
	if sentinel == word.Nil {
		panic("msqueue: node arena exhausted")
	}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// ObjectID implements core.MoveReady.
func (q *Queue) ObjectID() uint64 { return q.id }

// Enqueue appends val and reports success. It fails when the arena has
// no node for it (t.Exhausted then reports true) or when used as a move
// target and the move aborts (line Q17, reached through scas returning
// ABORT).
func (q *Queue) Enqueue(t *core.Thread, val uint64) bool {
	ref := t.AllocNode() // Q2
	if ref == word.Nil {
		return false
	}
	n := t.Node(ref)
	// Q3–Q4: next is already nil from the allocator; publish val before
	// the node becomes reachable via the scas below.
	n.Val = val
	for { // Q5
		ltail := q.tail.Load()              // Q6
		t.ProtectNode(core.SlotIns0, ltail) // Q7: hp1 ← ltail
		if q.tail.Load() != ltail {
			continue
		}
		tn := t.Node(ltail)
		lnext := tn.Next.Load() // Q8
		if word.IsDesc(lnext) {
			lnext = t.Read(&tn.Next)
		}
		t.ProtectNode(core.SlotIns1, lnext) // Q9: hp2 ← lnext
		if q.tail.Load() != ltail {         // Q10
			continue
		}
		if lnext != word.Nil { // Q11: tail is lagging
			t.CAS(&q.tail, ltail, lnext) // Q12
			continue                     // Q13
		}
		if !t.MoveInFlight() { // Q14, M38–M39: plain insert
			if !tn.Next.CAS(word.Nil, ref) {
				t.LostCAS()
				continue // conflict: retry
			}
		} else if res := t.SCASInsert(&tn.Next, word.Nil, ref, ltail); res != core.FTrue { // Q14
			if res == core.FAbort { // Q15
				t.FreeNodeDirect(ref) // Q16: the node was never published
				t.ClearNode(core.SlotIns0)
				t.ClearNode(core.SlotIns1)
				return false // Q17
			}
			continue
		}
		t.CAS(&q.tail, ltail, ref) // Q18–Q19
		t.ClearNode(core.SlotIns0)
		t.ClearNode(core.SlotIns1)
		return true // Q20
	}
}

// Dequeue removes the oldest value. ok is false when the queue is empty
// or a surrounding move aborted.
func (q *Queue) Dequeue(t *core.Thread) (val uint64, ok bool) {
	for { // Q22
		lhead := q.head.Load() // Q23
		if word.IsDesc(lhead) {
			lhead = t.Read(&q.head)
		}
		t.ProtectNode(core.SlotRem0, lhead) // Q24: hp3 ← lhead
		if q.head.Load() != lhead {
			continue
		}
		ltail := q.tail.Load() // Q25
		hn := t.Node(lhead)
		lnext := hn.Next.Load() // Q26
		if word.IsDesc(lnext) {
			lnext = t.Read(&hn.Next)
		}
		t.ProtectNode(core.SlotRem1, lnext) // Q27: hp4 ← lnext
		if q.head.Load() != lhead {         // Q28
			continue
		}
		if lnext == word.Nil { // Q29: empty
			t.ClearNode(core.SlotRem0)
			t.ClearNode(core.SlotRem1)
			return 0, false
		}
		if lhead == ltail { // Q30: tail is lagging
			t.CAS(&q.tail, ltail, lnext) // Q31
			continue                     // Q32
		}
		val = t.Node(lnext).Val // Q33
		if !t.MoveInFlight() {  // Q34, M20–M21: plain remove
			if !q.head.CAS(lhead, lnext) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASRemove(&q.head, lhead, lnext, val, lhead); res != core.FTrue { // Q34
			if res == core.FAbort {
				// The move's target rejected the element (a full or
				// duplicate-key target, or an insert that got no node);
				// nothing was changed, so just report failure.
				t.ClearNode(core.SlotRem0)
				t.ClearNode(core.SlotRem1)
				return 0, false
			}
			continue
		}
		t.RetireNode(lhead) // Q35: free lhead
		t.ClearNode(core.SlotRem0)
		t.ClearNode(core.SlotRem1)
		return val, true // Q36
	}
}

// Insert implements core.Inserter (the key is ignored; queues are
// unkeyed). It makes the queue usable as a move target.
func (q *Queue) Insert(t *core.Thread, _ uint64, val uint64) bool {
	return q.Enqueue(t, val)
}

// Remove implements core.Remover (the key is ignored).
func (q *Queue) Remove(t *core.Thread, _ uint64) (uint64, bool) {
	return q.Dequeue(t)
}

// Len counts the elements by walking head to tail. It is linearizable
// only in quiescent states and exists for tests and examples.
func (q *Queue) Len(t *core.Thread) int {
	n := 0
	cur := q.head.Load()
	if word.IsDesc(cur) {
		cur = t.Read(&q.head)
	}
	for {
		nw := &t.Node(cur).Next
		next := nw.Load()
		if word.IsDesc(next) {
			next = t.Read(nw)
		}
		if next == word.Nil {
			return n
		}
		n++
		cur = next
	}
}

// Drain pops values until empty, returning how many were removed
// (tests/examples; quiescent use).
func (q *Queue) Drain(t *core.Thread) int {
	n := 0
	for {
		if _, ok := q.Dequeue(t); !ok {
			return n
		}
		n++
	}
}

// Anchors exposes the head and tail words for structural verification
// (package verify) and diagnostics; not part of the normal API.
func (q *Queue) Anchors() (head, tail *word.Word) { return &q.head, &q.tail }
