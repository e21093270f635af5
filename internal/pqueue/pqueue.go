// Package pqueue implements a move-ready lock-free priority queue: a
// linked list sorted by priority whose deleted nodes form a prefix, in
// the style of Lindén and Jonsson. A node is deleted when the pointer to
// it — the head word or its predecessor's Next — carries the list mark.
// RemoveMin's linearization point is the CAS that marks the pointer to
// the first live node, an insert's the CAS that links its node: one CAS
// each, through scas. An insert of a smaller priority changes the
// pointer RemoveMin marks, so one of the two CASes fails and RemoveMin
// is never overtaken, as a Harris-list remove that marks the node's own
// Next is (TestRemoveMinNotOvertakenByInsert). Equal priorities leave in
// insertion order.
package pqueue

import (
	"repro/internal/core"
	"repro/internal/word"
)

// MaxPriority is the largest usable priority (priorities are 48 bits).
const MaxPriority = uint64(1)<<48 - 1

// PQueue is a move-ready min-priority queue of uint64 values.
type PQueue struct {
	head word.Word // the first node; marked once that node is deleted
	id   uint64
}

var _ core.MoveReady = (*PQueue)(nil)

// New creates an empty priority queue.
func New(t *core.Thread) *PQueue { return &PQueue{id: t.Runtime().NextObjectID()} }

// ObjectID implements core.MoveReady.
func (p *PQueue) ObjectID() uint64 { return p.id }

// load reads w, helping any composition announced in it.
func load(t *core.Thread, w *word.Word) uint64 {
	v := w.Load()
	if word.IsDesc(v) {
		v = t.Read(w)
	}
	return v
}

// locate walks from the head past the deleted nodes and the live nodes
// of priority below limit, and returns the unmarked pointer word there,
// the node holding it (0 for the head), the node it points to, and the
// head value the walk started from. The hazard slots are one side's: pin
// keeps the head's node from reuse, so the head cannot return to a value
// it left, and a, b protect the nodes hand over hand. A hop to a live
// node is validated by its pointer, a hop to a deleted one by the head:
// only a swing of the head unlinks nodes.
func (p *PQueue) locate(t *core.Thread, limit uint64, pin, a, b int) (prevW *word.Word, prevRef, cur, head uint64) {
retry:
	for {
		head = load(t, &p.head)
		t.ProtectNode(pin, head)
		if p.head.Load() != head {
			continue
		}
		prevW, prevRef = &p.head, 0
		for v := head; ; {
			cur = word.ListUnmarked(v)
			if cur == word.Nil {
				return prevW, prevRef, cur, head
			}
			t.ProtectNode(b, cur)
			if word.IsListMarked(v) && p.head.Load() != head || !word.IsListMarked(v) && prevW.Load() != v {
				continue retry
			}
			if !word.IsListMarked(v) && t.Node(cur).Key >= limit {
				return prevW, prevRef, cur, head
			}
			a, b = b, a // cur keeps the slot it is published in
			prevW, prevRef = &t.Node(cur).Next, cur
			v = load(t, prevW)
		}
	}
}

// Insert adds val with the given priority, after every element of a
// priority at most as high. It returns false when priority exceeds
// MaxPriority, when the arena has no node for it (t.Exhausted then
// reports true), or when used as a move target and the move aborts.
func (p *PQueue) Insert(t *core.Thread, priority, val uint64) bool {
	if priority > MaxPriority {
		return false
	}
	ref := t.AllocNode()
	if ref == word.Nil {
		return false
	}
	n := t.Node(ref)
	n.Key, n.Val = priority, val
	for {
		prevW, prevRef, cur, _ := p.locate(t, priority+1, core.SlotInsAux, core.SlotIns0, core.SlotIns1)
		n.Next.Store(cur)
		if !t.MoveInFlight() { // M38–M39: plain insert
			if !prevW.CAS(cur, ref) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASInsert(prevW, cur, ref, prevRef); res != core.FTrue {
			if res == core.FAbort {
				t.FreeNodeDirect(ref) // never published
				return false
			}
			continue
		}
		return true
	}
}

// RemoveMin removes the element with the smallest priority, the oldest
// of them on a tie.
func (p *PQueue) RemoveMin(t *core.Thread) (priority, val uint64, ok bool) {
	for {
		prevW, prevRef, cur, head := p.locate(t, 0, core.SlotRemAux, core.SlotRem0, core.SlotRem1)
		if cur == word.Nil {
			return 0, 0, false
		}
		n := t.Node(cur)
		priority, val = n.Key, n.Val // requirement 4: known before the LP
		if !t.MoveInFlight() {       // M20–M21: plain remove
			if !prevW.CAS(cur, word.ListMarked(cur)) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASRemove(prevW, cur, word.ListMarked(cur), val, prevRef); res != core.FTrue {
			if res == core.FAbort {
				return 0, 0, false
			}
			continue
		}
		// Cleanup: when the walk started at a deleted node and the head
		// still holds it, swing the head to cur and retire the nodes the
		// swing unlinked.
		if first := word.ListUnmarked(head); first != cur && p.head.CAS(head, word.ListMarked(cur)) {
			for first != cur {
				next := word.ListUnmarked(load(t, &t.Node(first).Next))
				t.RetireNode(first)
				first = next
			}
		}
		return priority, val, true
	}
}

// Min peeks at the smallest priority.
func (p *PQueue) Min(t *core.Thread) (priority, val uint64, ok bool) {
	_, _, cur, _ := p.locate(t, 0, core.SlotRemAux, core.SlotRem0, core.SlotRem1)
	if cur == word.Nil {
		return 0, 0, false
	}
	n := t.Node(cur)
	return n.Key, n.Val, true
}

// Remove implements core.Remover: the key is ignored and the minimum is
// removed, making the priority queue a move source ("take the most
// urgent item").
func (p *PQueue) Remove(t *core.Thread, _ uint64) (uint64, bool) {
	_, val, ok := p.RemoveMin(t)
	return val, ok
}

// Walk calls f with the priority and value of every element in removal
// order (quiescent use: audits and tests), helping what it meets.
func (p *PQueue) Walk(t *core.Thread, f func(priority, val uint64)) {
	v := load(t, &p.head)
	for word.ListUnmarked(v) != word.Nil {
		n := t.Node(word.ListUnmarked(v))
		if !word.IsListMarked(v) {
			f(n.Key, n.Val)
		}
		v = load(t, &n.Next)
	}
}

// Len counts elements (quiescent use).
func (p *PQueue) Len(t *core.Thread) int {
	n := 0
	p.Walk(t, func(uint64, uint64) { n++ })
	return n
}

// HeadWord exposes the head anchor for structural verification (package
// verify) and diagnostics; not part of the normal API.
func (p *PQueue) HeadWord() *word.Word { return &p.head }
