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
// Reads of a link word (an anchor or a node's next) and the two
// linearization CASes run at the call site in their plain case, so an
// operation outside a composition costs what a plain list's does: a
// read is a load and a word.IsDesc test, calling Thread.Read only for a
// descriptor, and an scas is a plain CAS unless Thread.MoveInFlight
// (lines M20–M21, M38–M39 of Algorithm 3). The traversal's
// revalidations compare prev's link with the plain value read before; a
// descriptor never equals one, so the check fails and the restarted
// traversal's guarded read helps it.
//
// The algorithm is written once, over an anchor: the word a traversal
// starts at. List anchors at its head word; the hash map anchors at a
// bucket's head word or at the Next word of a bucket's sentinel node
// (InsertAt, RemoveAt, ContainsAt, LinkAt). Nodes are ordered by
// (Key, Aux): List leaves Aux zero, the map uses it to sort a sentinel
// before the entry that shares its order key.
package harrislist

import (
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/word"
)

// List is a move-ready sorted set of (key, value) pairs with unique
// keys.
type List struct {
	head word.Word
	id   uint64
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
// slotPrev/slotCur are the side's two hazard slots (insert- and
// remove-side calls use disjoint pairs, requirement 2). They swap roles
// on every advance, so a hop makes one fenced store: the node just
// validated is already published in the slot that becomes prev's. The
// anchor itself is not protected: it must be a word that is never
// reclaimed — an object's head, or the Next word of a node that is never
// removed. Nothing clears the slots on return: they go on publishing at
// most two nodes until this thread's later searches on the same side
// overwrite them, the bound a parked thread imposes anyway.
func search(t *core.Thread, anchor *word.Word, key, aux uint64, slotPrev, slotCur int) searchResult {
retry:
	for {
		prevW := anchor
		prevRef := uint64(0)
		cur := prevW.Load()
		if word.IsDesc(cur) {
			cur = t.Read(prevW)
		}
		for {
			if cur == word.Nil {
				return searchResult{prevW: prevW, prevRef: prevRef, cur: word.Nil}
			}
			t.ProtectNode(slotCur, cur)
			if prevW.Load() != cur {
				continue retry // prev changed under us; restart
			}
			curN := t.Node(cur)
			nextRaw := curN.Next.Load()
			if word.IsDesc(nextRaw) {
				nextRaw = t.Read(&curN.Next)
			}
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
			if prevW.Load() != cur {
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
			// Advance: cur becomes prev and keeps the slot it is published in.
			slotPrev, slotCur = slotCur, slotPrev
			prevW = &curN.Next
			prevRef = cur
			cur = nextRaw
		}
	}
}

// Insert adds (key, val); it returns false when the key already exists
// (an init-phase failure: during a move this aborts the composition),
// when the arena has no node for it (t.Exhausted then reports true), or
// when a surrounding move aborts.
func (l *List) Insert(t *core.Thread, key, val uint64) bool {
	ok, _ := InsertAt(t, &l.head, key, 0, val)
	return ok
}

// InsertNew is Insert that also reports whether a refused key was
// already present, as opposed to refused for want of a node or by an
// aborted move.
func (l *List) InsertNew(t *core.Thread, key, val uint64) (ok, exists bool) {
	return InsertAt(t, &l.head, key, 0, val)
}

// InsertAt is Insert on the list reachable from anchor, for the node
// (key, aux). exists reports a refusal because the node is already
// there.
func InsertAt(t *core.Thread, anchor *word.Word, key, aux, val uint64) (ok, exists bool) {
	ref := word.Nil
	for {
		r := search(t, anchor, key, aux, core.SlotInsAux, core.SlotIns0)
		if r.found {
			if ref != word.Nil {
				t.FreeNodeDirect(ref)
			}
			return false, true
		}
		if ref == word.Nil {
			if ref = t.AllocNode(); ref == word.Nil {
				return false, false
			}
			n := t.Node(ref)
			n.Key, n.Aux, n.Val = key, aux, val
		}
		t.Node(ref).Next.Store(r.cur)
		if !t.MoveInFlight() { // M38–M39: plain insert
			if !r.prevW.CAS(r.cur, ref) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASInsert(r.prevW, r.cur, ref, r.prevRef); res != core.FTrue {
			if res == core.FAbort {
				t.FreeNodeDirect(ref)
				return false, false
			}
			continue
		}
		return true, false
	}
}

// LinkAt returns the node (key, aux) of the list reachable from anchor,
// linking a fresh one (value 0) when there is none, and whether this
// call linked it; it returns word.Nil when it must link and the arena
// has no node, and leaves t.Exhausted's record as it was: the caller
// works around a missing node (core.Thread.AllocNodeQuiet). The link is
// structural, like Harris' physical unlink: a plain CAS, never scas, so
// a surrounding move does not capture it as one of its entries. It is
// meant for nodes that are never removed (the hash map's sentinels), on
// which racing callers agree: whoever loses the CAS finds the winner's
// node on its next search and frees its own.
func LinkAt(t *core.Thread, anchor *word.Word, key, aux uint64, slotPrev, slotCur int) (ref uint64, linked bool) {
	for {
		r := search(t, anchor, key, aux, slotPrev, slotCur)
		if r.found {
			if ref != word.Nil {
				t.FreeNodeDirect(ref)
			}
			return r.cur, false
		}
		if ref == word.Nil {
			if ref = t.AllocNodeQuiet(); ref == word.Nil {
				return word.Nil, false
			}
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
	return RemoveAt(t, &l.head, key, 0)
}

// RemoveAt is Remove on the list reachable from anchor, for the node
// (key, aux).
func RemoveAt(t *core.Thread, anchor *word.Word, key, aux uint64) (uint64, bool) {
	for {
		r := search(t, anchor, key, aux, core.SlotRemAux, core.SlotRem0)
		if !r.found {
			return 0, false
		}
		curN := t.Node(r.cur)
		val := curN.Val // requirement 4: value available before the LP
		if !t.MoveInFlight() {
			if !curN.Next.CAS(r.next, word.ListMarked(r.next)) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASRemove(&curN.Next, r.next, word.ListMarked(r.next), val, r.cur); res != core.FTrue {
			if res == core.FAbort {
				return 0, false
			}
			continue
		}
		// Cleanup phase: try to unlink; a failed CAS leaves the node for
		// later traversals.
		if r.prevW.CAS(r.cur, r.next) {
			t.RetireNode(r.cur)
		}
		return val, true
	}
}

// RemoveMin deletes the element with the smallest key and returns it.
// The linearization point is the same marking CAS as Remove's, so
// RemoveMin composes with moves exactly like Remove (the priority-queue
// package builds on this).
func (l *List) RemoveMin(t *core.Thread) (key, val uint64, ok bool) {
	for {
		// search(0) positions at the first live node: every key is >= 0.
		r := search(t, &l.head, 0, 0, core.SlotRemAux, core.SlotRem0)
		if r.cur == word.Nil {
			return 0, 0, false
		}
		curN := t.Node(r.cur)
		key, val = curN.Key, curN.Val
		if !t.MoveInFlight() { // M20–M21: plain remove
			if !curN.Next.CAS(r.next, word.ListMarked(r.next)) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASRemove(&curN.Next, r.next, word.ListMarked(r.next), val, r.cur); res != core.FTrue {
			if res == core.FAbort {
				return 0, 0, false
			}
			continue
		}
		if r.prevW.CAS(r.cur, r.next) {
			t.RetireNode(r.cur)
		}
		return key, val, true
	}
}

// Min returns the smallest key and its value without removing it.
func (l *List) Min(t *core.Thread) (key, val uint64, ok bool) {
	r := search(t, &l.head, 0, 0, core.SlotRemAux, core.SlotRem0)
	if r.cur == word.Nil {
		return 0, 0, false
	}
	n := t.Node(r.cur)
	return n.Key, n.Val, true
}

// Contains reports whether key is present and returns its value; a
// marked node is never reported. It runs the validated search, so it
// unlinks and retires the marked nodes it passes.
func (l *List) Contains(t *core.Thread, key uint64) (uint64, bool) {
	return ContainsAt(t, &l.head, key, 0)
}

// ContainsAt is Contains on the list reachable from anchor, for the
// node (key, aux), unlinking marked nodes the same way.
func ContainsAt(t *core.Thread, anchor *word.Word, key, aux uint64) (uint64, bool) {
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
	cur := anchor.Load()
	if word.IsDesc(cur) {
		cur = t.Read(anchor)
	}
	for cur != word.Nil {
		n := t.Node(cur)
		nx := n.Next.Load()
		if word.IsDesc(nx) {
			nx = t.Read(&n.Next)
		}
		if !word.IsListMarked(nx) {
			f(n)
		}
		cur = word.ListUnmarked(nx)
	}
}

// HeadWord exposes the head anchor for structural verification (package
// verify) and diagnostics; not part of the normal API.
func (l *List) HeadWord() *word.Word { return &l.head }
