// Package msqueue implements the lock-free FIFO queue of Michael and
// Scott [18] made move-ready per §5.1 of the paper (Algorithm 5):
//
//   - the linearization-point CASes (lines Q14 and Q34) are replaced by
//     scas,
//   - every read of a word that can take part in a DCAS (lines Q6, Q7,
//     Q8, Q10, Q23, Q24, Q25, Q26, Q28) goes through the read operation,
//   - enqueue handles the ABORT result by freeing its node (Q15–Q17),
//     and fails before its loop when the arena has no node for it,
//   - dequeue also handles ABORT, per the bracketed lines of Algorithm 2,
//     because generic move targets (unlike the queue itself) can fail.
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
		ltail := t.Read(&q.tail)            // Q6
		t.ProtectNode(core.SlotIns0, ltail) // Q7: hp1 ← ltail
		if t.Read(&q.tail) != ltail {
			continue
		}
		tn := t.Node(ltail)
		lnext := t.Read(&tn.Next)           // Q8
		t.ProtectNode(core.SlotIns1, lnext) // Q9: hp2 ← lnext
		if t.Read(&q.tail) != ltail {       // Q10
			continue
		}
		if lnext != word.Nil { // Q11: tail is lagging
			t.CAS(&q.tail, ltail, lnext) // Q12
			continue                     // Q13
		}
		res := t.SCASInsert(&tn.Next, word.Nil, ref, ltail) // Q14
		if res == core.FAbort {                             // Q15
			t.FreeNodeDirect(ref) // Q16: the node was never published
			t.ClearNode(core.SlotIns0)
			t.ClearNode(core.SlotIns1)
			return false // Q17
		}
		if res == core.FTrue { // Q18
			t.CAS(&q.tail, ltail, ref) // Q19
			t.ClearNode(core.SlotIns0)
			t.ClearNode(core.SlotIns1)
			t.BackoffReset()
			return true // Q20
		}
		t.BackoffWait() // conflict: retry (with backoff when enabled, §6)
	}
}

// Dequeue removes the oldest value. ok is false when the queue is empty
// or a surrounding move aborted.
func (q *Queue) Dequeue(t *core.Thread) (val uint64, ok bool) {
	for { // Q22
		lhead := t.Read(&q.head)            // Q23
		t.ProtectNode(core.SlotRem0, lhead) // Q24: hp3 ← lhead
		if t.Read(&q.head) != lhead {
			continue
		}
		ltail := t.Read(&q.tail) // Q25
		hn := t.Node(lhead)
		lnext := t.Read(&hn.Next)           // Q26
		t.ProtectNode(core.SlotRem1, lnext) // Q27: hp4 ← lnext
		if t.Read(&q.head) != lhead {       // Q28
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
		val = t.Node(lnext).Val                                // Q33
		res := t.SCASRemove(&q.head, lhead, lnext, val, lhead) // Q34
		if res == core.FTrue {
			t.RetireNode(lhead) // Q35: free lhead
			t.ClearNode(core.SlotRem0)
			t.ClearNode(core.SlotRem1)
			t.BackoffReset()
			return val, true // Q36
		}
		if res == core.FAbort {
			// The move's target rejected the element (a full or
			// duplicate-key target, or an insert that got no node);
			// nothing was changed, so just report failure.
			t.ClearNode(core.SlotRem0)
			t.ClearNode(core.SlotRem1)
			return 0, false
		}
		t.BackoffWait()
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
	cur := t.Read(&q.head)
	for {
		next := t.Read(&t.Node(cur).Next)
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
