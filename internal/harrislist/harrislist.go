// Package harrislist implements a lock-free ordered list (set) in the
// style of Harris [8], using Michael's hazard-pointer-compatible
// traversal, made move-ready per the paper's methodology.
//
// It demonstrates that the methodology reaches beyond the paper's two
// case studies, and it exercises the keyed variants of Algorithms 2–3
// ([skey]/[tkey]): remove selects a key, insert supplies one.
//
// Move-candidate checklist (Definition 1):
//  1. Insert and remove of single elements, linearizable (Harris [8],
//     Michael [17]).
//  2. Instances share nothing; insert- and remove-side hazard slots are
//     disjoint.
//  3. The linearization point of remove is the successful CAS that marks
//     cur.next (a pointer CAS by the invoking process); insert's is the
//     CAS swinging prev.next to the new node. An unsuccessful operation
//     never follows a successful such CAS.
//  4. The removed value is read from the node before the marking CAS.
//
// Logical deletion uses bit 1 of the next-field value (word.ListMarked);
// physical unlinking happens in the remove's cleanup phase or by later
// traversals, exactly as Harris prescribes.
package harrislist

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/word"
)

// List is a move-ready sorted set of (key, value) pairs with unique
// keys.
type List struct {
	head word.Word
	id   uint64

	// retries counts failed linearization CASes (an insert or remove
	// losing its scas to a concurrent writer); the hash map sums it over
	// its buckets for cas_retries_total. Written only on the contention
	// path, so the uncontended fast path never touches it.
	retries atomic.Uint64
}

var _ core.MoveReady = (*List)(nil)

// New creates an empty list.
func New(t *core.Thread) *List {
	return &List{id: t.Runtime().NextObjectID()}
}

// Init gives a zero List held by value inside an owning structure its
// object identity: one of a block of ids for the hash map's bucket
// arrays, the owner's own id for the priority queue (which is its list).
// It must run before the list is shared.
func (l *List) Init(id uint64) { l.id = id }

// ObjectID implements core.MoveReady.
func (l *List) ObjectID() uint64 { return l.id }

// searchResult carries the cursor state of a traversal: prevW is the
// word holding cur (the head anchor or a node's next field), prevRef the
// node containing it (0 for the anchor).
type searchResult struct {
	prevW   *word.Word
	prevRef uint64
	cur     uint64 // node with Key >= key, or Nil
	next    uint64 // cur's successor (unmarked)
	found   bool
}

// search locates key with Michael's validated traversal, unlinking
// logically deleted nodes it passes. slotPrev/slotCur select the hazard
// slots (insert- and remove-side calls use disjoint sets, requirement
// 2).
func (l *List) search(t *core.Thread, key uint64, slotPrev, slotCur int) searchResult {
retry:
	for {
		prevW := &l.head
		prevRef := uint64(0)
		t.ProtectNode(slotPrev, 0)
		cur := t.Read(prevW)
		for {
			if cur == word.Nil {
				return searchResult{prevW: prevW, prevRef: prevRef, cur: word.Nil}
			}
			t.ProtectNode(slotCur, cur)
			if t.Read(prevW) != cur {
				continue retry // prev changed under us; restart
			}
			curN := t.Node(cur)
			nextRaw := t.Read(&curN.Next)
			if word.IsListMarked(nextRaw) {
				// cur is logically deleted: unlink it (cleanup help).
				next := word.ListUnmarked(nextRaw)
				if !prevW.CAS(cur, next) {
					continue retry
				}
				t.RetireNode(cur)
				cur = next
				continue
			}
			ckey := curN.Key
			if t.Read(prevW) != cur {
				continue retry // revalidate before trusting ckey/nextRaw
			}
			if ckey >= key {
				return searchResult{
					prevW:   prevW,
					prevRef: prevRef,
					cur:     cur,
					next:    nextRaw,
					found:   ckey == key,
				}
			}
			// Advance: cur becomes prev; transfer its protection.
			t.ProtectNode(slotPrev, cur)
			prevW = &curN.Next
			prevRef = cur
			cur = nextRaw
		}
	}
}

// Insert adds (key, val); it returns false when the key already exists
// (an init-phase failure: during a move this aborts the composition) or
// when a surrounding move aborts.
func (l *List) Insert(t *core.Thread, key, val uint64) bool {
	ref := word.Nil
	defer func() {
		t.ProtectNode(core.SlotInsAux, 0)
		t.ProtectNode(core.SlotIns0, 0)
	}()
	for {
		r := l.search(t, key, core.SlotInsAux, core.SlotIns0)
		if r.found {
			if ref != word.Nil {
				t.FreeNodeDirect(ref)
			}
			return false
		}
		if ref == word.Nil {
			ref = t.AllocNode()
			n := t.Node(ref)
			n.Key, n.Val = key, val
		}
		t.Node(ref).Next.Store(r.cur)
		res := t.SCASInsert(r.prevW, r.cur, ref, r.prevRef)
		if res == core.FAbort {
			t.FreeNodeDirect(ref)
			return false
		}
		if res == core.FTrue {
			t.BackoffReset()
			return true
		}
		l.retries.Add(1)
		t.BackoffWait()
	}
}

// Remove deletes key and returns its value. The linearization point is
// the marking CAS on cur.next (via scas); physical unlinking is the
// cleanup phase.
func (l *List) Remove(t *core.Thread, key uint64) (uint64, bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	for {
		r := l.search(t, key, core.SlotRemAux, core.SlotRem0)
		if !r.found {
			return 0, false
		}
		curN := t.Node(r.cur)
		val := curN.Val // requirement 4: value available before the LP
		res := t.SCASRemove(&curN.Next, r.next, word.ListMarked(r.next), val, r.cur)
		if res == core.FTrue {
			// Cleanup phase: try to unlink; a failed CAS leaves the node
			// for later traversals.
			if r.prevW.CAS(r.cur, r.next) {
				t.RetireNode(r.cur)
			}
			t.BackoffReset()
			return val, true
		}
		if res == core.FAbort {
			return 0, false
		}
		l.retries.Add(1)
		t.BackoffWait()
	}
}

// RemoveMin deletes the element with the smallest key and returns it.
// The linearization point is the same marking CAS as Remove's, so
// RemoveMin composes with moves exactly like Remove (the priority-queue
// package builds on this).
func (l *List) RemoveMin(t *core.Thread) (key, val uint64, ok bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	for {
		// search(0) positions at the first live node: every key is >= 0.
		r := l.search(t, 0, core.SlotRemAux, core.SlotRem0)
		if r.cur == word.Nil {
			return 0, 0, false
		}
		curN := t.Node(r.cur)
		key, val = curN.Key, curN.Val
		res := t.SCASRemove(&curN.Next, r.next, word.ListMarked(r.next), val, r.cur)
		if res == core.FTrue {
			if r.prevW.CAS(r.cur, r.next) {
				t.RetireNode(r.cur)
			}
			t.BackoffReset()
			return key, val, true
		}
		if res == core.FAbort {
			return 0, 0, false
		}
		l.retries.Add(1)
		t.BackoffWait()
	}
}

// Min returns the smallest key and its value without removing it.
func (l *List) Min(t *core.Thread) (key, val uint64, ok bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	r := l.search(t, 0, core.SlotRemAux, core.SlotRem0)
	if r.cur == word.Nil {
		return 0, 0, false
	}
	n := t.Node(r.cur)
	return n.Key, n.Val, true
}

// Contains reports whether key is present and returns its value. Like
// Harris' original, it ignores logical deletion marks on the final hop
// only if the node is unmarked; marked nodes are treated as absent.
func (l *List) Contains(t *core.Thread, key uint64) (uint64, bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	r := l.search(t, key, core.SlotRemAux, core.SlotRem0)
	if !r.found {
		return 0, false
	}
	return t.Node(r.cur).Val, true
}

// PrepareRemove implements core.RemovePreparer for the batched move
// pipeline: Contains' miss is a linearizable absence observation (a
// failed batched move may linearize at it), and a hit warms the
// traversal path — and unlinks marked nodes along it — for the commit.
func (l *List) PrepareRemove(t *core.Thread, key uint64) bool {
	_, ok := l.Contains(t, key)
	return ok
}

// PrepareInsert implements core.InsertPreparer: a hit means the insert
// would fail on the duplicate key (during a move: abort the
// composition), so the batched move can fail fast, linearizing at the
// observation of the occupied key.
func (l *List) PrepareInsert(t *core.Thread, key uint64) bool {
	_, dup := l.Contains(t, key)
	return !dup
}

// Len counts elements (quiescent use; skips marked nodes).
func (l *List) Len(t *core.Thread) int {
	n := 0
	cur := t.Read(&l.head)
	for cur != word.Nil {
		nx := t.Read(&t.Node(cur).Next)
		if !word.IsListMarked(nx) {
			n++
		}
		cur = word.ListUnmarked(nx)
	}
	return n
}

// Keys returns the keys in order (quiescent use, tests).
func (l *List) Keys(t *core.Thread) []uint64 {
	var out []uint64
	cur := t.Read(&l.head)
	for cur != word.Nil {
		n := t.Node(cur)
		nx := t.Read(&n.Next)
		if !word.IsListMarked(nx) {
			out = append(out, n.Key)
		}
		cur = word.ListUnmarked(nx)
	}
	return out
}

// Retries reports how many linearization CASes this list has lost to
// concurrent writers — a monotone contention signal (zero on an
// uncontended list).
func (l *List) Retries() uint64 { return l.retries.Load() }

// HeadWord exposes the head anchor for structural verification (package
// verify) and diagnostics; not part of the normal API.
func (l *List) HeadWord() *word.Word { return &l.head }
