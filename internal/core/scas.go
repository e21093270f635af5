package core

import (
	"repro/internal/kcas"
	"repro/internal/word"
)

// FResult is the tri-state result of scas (the paper's fbool): in
// addition to true/false it can order the calling operation to abort,
// undoing its init-phase (Definition 2, change 2).
type FResult uint8

const (
	// FFalse: the linearization CAS failed; retry the operation's loop.
	FFalse FResult = iota
	// FTrue: the linearization CAS succeeded.
	FTrue
	// FAbort: the surrounding operation must abort: free anything its
	// init-phase allocated and return failure.
	FAbort
)

func (r FResult) String() string {
	switch r {
	case FFalse:
		return "false"
	case FTrue:
		return "true"
	case FAbort:
		return "ABORT"
	}
	return "?"
}

// Inserter is the insert half of a move-ready object (Definition 2).
// Objects without keys ignore the key argument. Insert returns false
// when the element cannot be inserted (capacity, duplicate key, or an
// aborted move).
type Inserter interface {
	Insert(t *Thread, key, val uint64) bool
}

// Remover is the remove half of a move-ready object. Objects without
// keys ignore the key argument. Remove returns the removed element.
type Remover interface {
	Remove(t *Thread, key uint64) (uint64, bool)
}

// MoveReady is implemented by every move-ready container in this
// repository.
type MoveReady interface {
	Inserter
	Remover
	// ObjectID returns a stable identity used for same-object rejection
	// and the blocking baseline's lock ordering.
	ObjectID() uint64
}

// SCASRemove is the scas variant called at the linearization point of
// remove operations (Algorithm 3, lines M9–M21). w/old/new are the CAS
// the operation would have performed; element is the value being
// removed (available before the linearization point, requirement 4);
// hp is the node reference whose memory contains w (0 for object
// anchors), carried to helpers via the descriptor (lines M14/D3).
func (t *Thread) SCASRemove(w *word.Word, old, new, element, hp uint64) FResult {
	if t.desc == nil && t.mdesc == nil { // M20: plain remove, kept inlinable
		if w.CAS(old, new) { // M21
			return FTrue
		}
		return FFalse
	}
	return t.scasRemoveSlow(w, old, new, element, hp)
}

func (t *Thread) scasRemoveSlow(w *word.Word, old, new, element, hp uint64) FResult {
	if t.mdesc != nil {
		return t.moveNRemoveSCAS(w, old, new, element, hp)
	}
	e := &t.desc.Entries[0]
	e.Ptr, e.Old, e.New = w, old, new           // M11–M13
	e.HP = word.NodeIndex(hp)                   // M14
	t.insfailed = true                          // M15
	ok := t.ltarget.Insert(t, t.ltkey, element) // M16
	if t.insfailed {                            // M17: the insert never reached its scas
		return FAbort // M18
	}
	if ok { // M19
		return FTrue
	}
	return FFalse
}

// SCASInsert is the scas variant called at the linearization point of
// insert operations (Algorithm 3, lines M22–M39).
func (t *Thread) SCASInsert(w *word.Word, old, new, hp uint64) FResult {
	if t.desc == nil && t.mdesc == nil { // M38: plain insert, kept inlinable
		if w.CAS(old, new) { // M39
			return FTrue
		}
		return FFalse
	}
	return t.scasInsertSlow(w, old, new, hp)
}

func (t *Thread) scasInsertSlow(w *word.Word, old, new, hp uint64) FResult {
	if t.mdesc != nil {
		return t.moveNInsertSCAS(w, old, new, hp)
	}
	d := t.desc
	e := &d.Entries[1]
	e.Ptr, e.Old, e.New = w, old, new // M24–M26
	e.HP = word.NodeIndex(hp)         // M27
	if d.Entries[0].Ptr == e.Ptr {
		panic("core: move source and target share a word; moves require distinct objects")
	}
	res := t.kctx.ExecutePair(d, t.descRef) // M28
	if res != kcas.Success {                // M29
		// M30: a helper may still reference the failed descriptor, so
		// take a fresh one carrying the stored remove-side arguments.
		nd, nref := t.kctx.AllocPair() // M31: res starts UNDECIDED
		nd.Entries[0] = d.Entries[0]
		t.kctx.Retire(d, t.descRef)
		t.desc, t.descRef = nd, nref
	}
	t.insfailed = false // M32
	switch res {
	case kcas.FirstFailed: // M33: the remove's word changed — redo steps 1–2
		return FAbort // M34
	case kcas.SecondFailed: // M35: the insert's word changed — redo step 2
		return FFalse // M36
	}
	return FTrue // M37
}

// Move atomically moves one element from src to dst (Algorithm 3, lines
// M1–M8): the remove's and insert's linearization CASes are performed
// together by one DCAS, so no concurrent operation can observe the
// element in neither or both objects. skey selects the element for keyed
// sources (ignored by queues/stacks); tkey is the key it is inserted
// under for keyed targets.
//
// It returns the moved value and whether the move happened. A move fails
// when the source is empty / has no such key, or when the target cannot
// accept the element; both objects are then unchanged.
func (t *Thread) Move(src Remover, dst Inserter, skey, tkey uint64) (uint64, bool) {
	if sameObject(src, dst) {
		panic("core: Move requires two distinct objects")
	}
	if t.desc != nil || t.mdesc != nil {
		panic("core: nested Move on one thread")
	}
	d, ref := t.kctx.AllocPair() // M2–M3: fresh descriptor, res = UNDECIDED
	t.desc, t.descRef = d, ref
	t.ltarget, t.ltkey = dst, tkey // M4–M5
	val, ok := src.Remove(t, skey) // M6
	cur, curRef := t.desc, t.descRef
	t.desc = nil // M7
	t.ltarget = nil
	t.kctx.Retire(cur, curRef)
	return val, ok // M8
}

// sameObject reports whether a and b are the same move-ready object.
func sameObject(a Remover, b Inserter) bool {
	am, ok1 := a.(MoveReady)
	bm, ok2 := b.(MoveReady)
	if ok1 && ok2 {
		return am.ObjectID() == bm.ObjectID()
	}
	return false
}
