package core

import "repro/internal/word"

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
// remove operations (Algorithm 3, lines M9–M19). w/old/new are the CAS
// the operation would have performed; element is the value being
// removed (available before the linearization point, requirement 4);
// hp is the node reference whose memory contains w (0 for object
// anchors), carried to helpers via the descriptor (lines M14/D3).
//
// The caller must be inside a composition (MoveInFlight reports true):
// a plain remove performs its CAS at its call site (lines M20–M21) and
// counts a lost one with LostCAS. A lost linearization CAS (FFalse: the
// operation retries) is counted here, in the thread's own stripe of
// cas_retries_total.
func (t *Thread) SCASRemove(w *word.Word, old, new, element, hp uint64) FResult {
	return t.tally(t.capture(w, old, new, element, hp, true))
}

// SCASInsert is the scas variant called at the linearization point of
// insert operations (Algorithm 3, lines M22–M37), under SCASRemove's
// precondition: a plain insert performs its CAS at its call site (lines
// M38–M39).
func (t *Thread) SCASInsert(w *word.Word, old, new, hp uint64) FResult {
	return t.tally(t.capture(w, old, new, 0, hp, false))
}

// tally returns r, counting it in the thread's stripe of
// cas_retries_total when it is FFalse: a lost linearization CAS.
func (t *Thread) tally(r FResult) FResult {
	if r == FFalse {
		t.LostCAS()
	}
	return r
}

// Move atomically moves one element from src to dst (Algorithm 3, lines
// M1–M8): the remove's and insert's linearization CASes are performed
// together by one DCAS, so no concurrent operation can observe the
// element in neither or both objects. It runs as the two-step chain
// (see runChain). skey selects the element for keyed sources (ignored
// by queues/stacks); tkey is the key it is inserted under for keyed
// targets.
//
// It returns the moved value and whether the move happened. A move fails
// when the source is empty / has no such key, or when the target cannot
// accept the element; both objects are then unchanged.
func (t *Thread) Move(src Remover, dst Inserter, skey, tkey uint64) (uint64, bool) {
	if sameObject(src, dst) {
		panic("core: Move requires two distinct objects")
	}
	t.steps = t.steps[:2]
	t.steps[1] = chainStep{ins: dst, key: tkey} // M4–M5
	return t.runChain(src, skey)
}

// sameObject reports whether a and b are the same object: their
// ObjectIDs are equal when both expose one, whatever else either
// implements, and otherwise they are the same interface value.
func sameObject(a, b any) bool {
	type identified interface{ ObjectID() uint64 }
	ai, ok1 := a.(identified)
	bi, ok2 := b.(identified)
	if ok1 && ok2 {
		return ai.ObjectID() == bi.ObjectID()
	}
	return a == b
}
