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
//
// The algorithm is written once, over an anchor: the word a traversal
// starts at. List anchors at its head word; the hash map anchors at a
// bucket's head word or at the Next word of a bucket's sentinel node
// (InsertAt, RemoveAt, ContainsAt, LinkAt). Nodes are ordered by
// (Key, Aux): List leaves Aux zero, the map uses it to sort a sentinel
// before the entry that shares its order key.
package harrislist

import (
	"sync/atomic"

	"repro/internal/arena"
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
// word holding cur (the anchor or a node's next field), prevRef the
// node containing it (0 for the anchor).
type searchResult struct {
	prevW   *word.Word
	prevRef uint64
	cur     uint64 // node with (Key, Aux) >= (key, aux), or Nil
	next    uint64 // cur's successor (unmarked)
	found   bool
}

// search locates (key, aux) with Michael's validated traversal, started
// at anchor and unlinking logically deleted nodes it passes.
// slotPrev/slotCur select the hazard slots (insert- and remove-side
// calls use disjoint sets, requirement 2). The anchor itself is not
// protected: it must be a word that is never reclaimed — an object's
// head, or the Next word of a node that is never removed.
func search(t *core.Thread, anchor *word.Word, key, aux uint64, slotPrev, slotCur int) searchResult {
retry:
	for {
		prevW := anchor
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
			ckey, caux := curN.Key, curN.Aux
			if t.Read(prevW) != cur {
				continue retry // revalidate before trusting ckey/nextRaw
			}
			if ckey > key || (ckey == key && caux >= aux) {
				return searchResult{
					prevW:   prevW,
					prevRef: prevRef,
					cur:     cur,
					next:    nextRaw,
					found:   ckey == key && caux == aux,
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
	return InsertAt(t, &l.head, key, 0, val, &l.retries)
}

// InsertAt is Insert on the list reachable from anchor, for the node
// (key, aux); retries counts the linearization CASes it loses.
func InsertAt(t *core.Thread, anchor *word.Word, key, aux, val uint64, retries *atomic.Uint64) bool {
	ref := word.Nil
	defer func() {
		t.ProtectNode(core.SlotInsAux, 0)
		t.ProtectNode(core.SlotIns0, 0)
	}()
	for {
		r := search(t, anchor, key, aux, core.SlotInsAux, core.SlotIns0)
		if r.found {
			if ref != word.Nil {
				t.FreeNodeDirect(ref)
			}
			return false
		}
		if ref == word.Nil {
			ref = t.AllocNode()
			n := t.Node(ref)
			n.Key, n.Aux, n.Val = key, aux, val
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
		retries.Add(1)
		t.BackoffWait()
	}
}

// LinkAt returns the node (key, aux) of the list reachable from anchor,
// linking a fresh one (value 0) when there is none, and whether this
// call linked it. The link is structural, like Harris' physical unlink:
// a plain CAS, never scas, so a surrounding move does not capture it as
// one of its entries. It is meant for nodes that are never removed (the
// hash map's sentinels), on which racing callers agree: whoever loses
// the CAS finds the winner's node on its next search and frees its own.
func LinkAt(t *core.Thread, anchor *word.Word, key, aux uint64, slotPrev, slotCur int) (ref uint64, linked bool) {
	defer func() {
		t.ProtectNode(slotPrev, 0)
		t.ProtectNode(slotCur, 0)
	}()
	for {
		r := search(t, anchor, key, aux, slotPrev, slotCur)
		if r.found {
			if ref != word.Nil {
				t.FreeNodeDirect(ref)
			}
			return r.cur, false
		}
		if ref == word.Nil {
			ref = t.AllocNode()
			n := t.Node(ref)
			n.Key, n.Aux = key, aux
		}
		t.Node(ref).Next.Store(r.cur)
		if r.prevW.CAS(r.cur, ref) {
			return ref, true
		}
	}
}

// Remove deletes key and returns its value. The linearization point is
// the marking CAS on cur.next (via scas); physical unlinking is the
// cleanup phase.
func (l *List) Remove(t *core.Thread, key uint64) (uint64, bool) {
	return RemoveAt(t, &l.head, key, 0, &l.retries)
}

// RemoveAt is Remove on the list reachable from anchor, for the node
// (key, aux); retries counts the linearization CASes it loses.
func RemoveAt(t *core.Thread, anchor *word.Word, key, aux uint64, retries *atomic.Uint64) (uint64, bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	for {
		r := search(t, anchor, key, aux, core.SlotRemAux, core.SlotRem0)
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
		retries.Add(1)
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
		r := search(t, &l.head, 0, 0, core.SlotRemAux, core.SlotRem0)
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
	r := search(t, &l.head, 0, 0, core.SlotRemAux, core.SlotRem0)
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
	return ContainsAt(t, &l.head, key, 0)
}

// ContainsAt is Contains on the list reachable from anchor, for the
// node (key, aux).
func ContainsAt(t *core.Thread, anchor *word.Word, key, aux uint64) (uint64, bool) {
	defer func() {
		t.ProtectNode(core.SlotRemAux, 0)
		t.ProtectNode(core.SlotRem0, 0)
	}()
	r := search(t, anchor, key, aux, core.SlotRemAux, core.SlotRem0)
	if !r.found {
		return 0, false
	}
	return t.Node(r.cur).Val, true
}

// Len counts elements (quiescent use; skips marked nodes).
func (l *List) Len(t *core.Thread) int {
	n := 0
	Walk(t, &l.head, func(*arena.Node) { n++ })
	return n
}

// Keys returns the keys in order (quiescent use, tests).
func (l *List) Keys(t *core.Thread) []uint64 {
	var out []uint64
	Walk(t, &l.head, func(n *arena.Node) { out = append(out, n.Key) })
	return out
}

// Walk calls f on every unmarked node reachable from anchor, in list
// order (quiescent use: audits and tests).
func Walk(t *core.Thread, anchor *word.Word, f func(*arena.Node)) {
	cur := t.Read(anchor)
	for cur != word.Nil {
		n := t.Node(cur)
		nx := t.Read(&n.Next)
		if !word.IsListMarked(nx) {
			f(n)
		}
		cur = word.ListUnmarked(nx)
	}
}

// Retries reports how many linearization CASes this list has lost to
// concurrent writers — a monotone contention signal (zero on an
// uncontended list).
func (l *List) Retries() uint64 { return l.retries.Load() }

// HeadWord exposes the head anchor for structural verification (package
// verify) and diagnostics; not part of the normal API.
func (l *List) HeadWord() *word.Word { return &l.head }
