package core

import (
	"repro/internal/kcas"
	"repro/internal/word"
)

// This file implements the §8 composed chains: a step program of removes
// and inserts whose linearization CASes are captured one descriptor
// entry per step and decided together by one k-word CAS. MoveN (one
// remove feeding n inserts) and TransferN (k independent remove/insert
// pairs) are both front-ends over the same chain machinery.
//
// Failure handling generalizes the DCAS retry rules: when the k-word CAS
// reports a conflict at entry i, steps 0..i-1 keep their captured CAS
// arguments and only steps i.. re-run their init-phases (entry 0 being
// the first remove, which restarts everything, like FIRSTFAILED).

// MoveN atomically removes one element from src and inserts it into
// every target: the paper's §8 extension ("remove an item from one
// object and insert it into n others atomically"). All n+1 linearization
// CASes are unified by one N-word CAS.
//
// Targets must be pairwise distinct objects and distinct from the
// source. It returns the moved value and whether the move happened; on
// failure no object is changed.
func (t *Thread) MoveN(src Remover, dsts []Inserter, skey uint64, tkeys []uint64) (uint64, bool) {
	if t.desc != nil || t.mdesc != nil {
		panic("core: nested Move on one thread")
	}
	n := len(dsts)
	if n == 0 {
		panic("core: MoveN needs at least one target")
	}
	if n+1 > kcas.MaxEntries {
		panic("core: MoveN supports at most kcas.MaxEntries-1 targets")
	}
	if len(tkeys) != n {
		panic("core: MoveN needs one target key per target")
	}
	for i, d := range dsts {
		if sameObject(src, d) {
			panic("core: MoveN requires targets distinct from the source")
		}
		// Compare target identities directly. (An earlier version routed
		// dsts[j] through a Remover type assertion first, which yields nil
		// for insert-only targets — the comparison then never fired and an
		// aliased pair slipped through to a mid-chain shared-word panic.)
		for j := 0; j < i; j++ {
			if sameInserter(dsts[j], d) {
				panic("core: MoveN requires pairwise distinct targets")
			}
		}
	}

	t.mSteps = t.mSteps[:0]
	t.mSteps = append(t.mSteps, chainStep{rem: src, key: skey})
	for i, d := range dsts {
		t.mSteps = append(t.mSteps, chainStep{ins: d, key: tkeys[i]})
	}
	return t.runChain()
}

// TransferN atomically moves k elements from src to dst: element i is
// removed under skeys[i] and inserted under tkeys[i], with all 2k
// linearization CASes decided by one k-word CAS. No concurrent operation
// can observe a state where some of the elements have moved and others
// have not.
//
// src and dst must be distinct objects and the keys within each side
// pairwise distinct. The steps must also be word-independent: removing
// (or inserting) two keys whose linearization CASes land on the same
// word — e.g. two map keys in one bucket chain — cannot be composed
// (the captured CASes would depend on each other's effect), and the
// chain panics when it detects that. Callers with structural knowledge
// pre-validate; see hashmap.SameChain. out, when non-nil, receives the
// k removed values on success. TransferN fails (changing nothing) when
// any source key is absent or any target insert is refused.
func (t *Thread) TransferN(src Remover, dst Inserter, skeys, tkeys []uint64, out []uint64) bool {
	if t.desc != nil || t.mdesc != nil {
		panic("core: nested Move on one thread")
	}
	k := len(skeys)
	if k == 0 {
		panic("core: TransferN needs at least one key pair")
	}
	if 2*k > kcas.MaxEntries {
		panic("core: TransferN supports at most kcas.MaxEntries/2 key pairs")
	}
	if len(tkeys) != k {
		panic("core: TransferN needs one target key per source key")
	}
	if sameObject(src, dst) {
		panic("core: TransferN requires two distinct objects")
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			if skeys[j] == skeys[i] {
				panic("core: TransferN source keys must be pairwise distinct")
			}
			if tkeys[j] == tkeys[i] {
				panic("core: TransferN target keys must be pairwise distinct")
			}
		}
	}

	t.mSteps = t.mSteps[:0]
	for i := 0; i < k; i++ {
		t.mSteps = append(t.mSteps, chainStep{rem: src, key: skeys[i]})
		t.mSteps = append(t.mSteps, chainStep{ins: dst, key: tkeys[i]})
	}
	_, ok := t.runChain()
	if ok && out != nil {
		for i := 0; i < k; i++ {
			out[i] = t.mVals[2*i]
		}
	}
	return ok
}

// sameInserter reports whether two targets are the same object, without
// requiring them to be removable: object identity when both sides carry
// one, interface identity otherwise.
func sameInserter(a, b Inserter) bool {
	type ider interface{ ObjectID() uint64 }
	am, ok1 := a.(ider)
	bm, ok2 := b.(ider)
	if ok1 && ok2 {
		return am.ObjectID() == bm.ObjectID()
	}
	if ok1 != ok2 {
		return false
	}
	return a == b
}

// runChain drives the prepared step program (t.mSteps, starting with a
// remove) to completion and returns step 0's removed value. The chain
// runs inside step 0's Remove call: each step's scas captures its entry
// and invokes the next step, so the whole program sits on the stack
// until the deepest scas executes the k-word CAS.
func (t *Thread) runChain() (uint64, bool) {
	d, ref := t.kctx.AllocK()
	t.mdesc, t.mref = d, ref
	t.mFailed = -1
	t.mAbort = false
	t.mDepth = 0

	first := t.mSteps[0]
	val, ok := first.rem.Remove(t, first.key)

	cur, curRef := t.mdesc, t.mref
	t.mdesc = nil
	t.mSteps = t.mSteps[:0]
	t.ReleaseHolds()
	t.recycleDesc(cur, curRef)
	return val, ok
}

// moveNRemoveSCAS captures a remove's linearization CAS as the entry at
// the current chain depth and continues the chain. The removed element
// is recorded per entry (TransferN returns them all) and threaded to the
// following insert.
func (t *Thread) moveNRemoveSCAS(w *word.Word, old, new, element, hp uint64) FResult {
	if t.mAbort {
		return FAbort
	}
	j := t.mDepth
	t.mReached[j] = true
	e := &t.mdesc.Entries[j]
	e.Ptr, e.Old, e.New = w, old, new
	e.HP = word.NodeIndex(hp)
	for k := 0; k < j; k++ {
		if t.mdesc.Entries[k].Ptr == w {
			panic("core: composed operations share a word; steps must be independent")
		}
	}
	// Hold the node beyond this container call: a later step on the same
	// side reuses the container hazard slots this capture was made under.
	t.HoldNode(j, hp)
	t.mVals[j] = element
	t.mElement = element
	return t.moveNChain(j)
}

// moveNInsertSCAS captures an insert's linearization CAS as the entry at
// the current chain depth and continues the chain.
func (t *Thread) moveNInsertSCAS(w *word.Word, old, new, hp uint64) FResult {
	if t.mAbort {
		return FAbort
	}
	j := t.mDepth
	t.mReached[j] = true
	e := &t.mdesc.Entries[j]
	e.Ptr, e.Old, e.New = w, old, new
	e.HP = word.NodeIndex(hp)
	for k := 0; k < j; k++ {
		if t.mdesc.Entries[k].Ptr == w {
			panic("core: composed operations share a word; steps must be independent")
		}
	}
	t.HoldNode(j, hp)
	return t.moveNChain(j)
}

// moveNChain runs after entry j has been captured: if steps remain it
// invokes the next one (whose scas will call back at depth j+1); once
// every entry is captured it executes the k-word CAS and translates the
// failure slot into the retry protocol.
func (t *Thread) moveNChain(j int) FResult {
	if j == len(t.mSteps)-1 { // all entries captured: decide
		t.mdesc.N = len(t.mSteps)
		ok, failed := t.kctx.Execute(t.mdesc, t.mref)
		if ok {
			t.mFailed = -1
			return FTrue
		}
		// Conflict at entry `failed`: take a fresh descriptor carrying
		// the entries that stay valid (all slots < failed).
		nd, nref := t.kctx.AllocK()
		for k := 0; k < failed; k++ {
			nd.Entries[k] = t.mdesc.Entries[k]
		}
		t.recycleDesc(t.mdesc, t.mref)
		t.mdesc, t.mref = nd, nref
		t.mFailed = failed
		if failed == j {
			return FFalse // this operation's word conflicted: retry it
		}
		return FAbort // an earlier operation conflicted: unwind to it
	}

	// Invoke the next step (entry j+1).
	next := t.mSteps[j+1]
	t.mDepth = j + 1
	t.mReached[j+1] = false
	var ok bool
	if next.rem != nil {
		_, ok = next.rem.Remove(t, next.key)
	} else {
		ok = next.ins.Insert(t, next.key, t.mElement)
	}
	t.mDepth = j

	if ok {
		return FTrue
	}
	if t.mAbort {
		return FAbort
	}
	if !t.mReached[j+1] {
		// The deeper step's init-phase failed outright (empty source,
		// full or duplicate-key target): the whole chain must abort.
		t.mAbort = true
		return FAbort
	}
	// The deeper step aborted because of a k-word CAS conflict.
	switch {
	case t.mFailed == j:
		return FFalse // our word conflicted: retry this operation
	case t.mFailed > j:
		// The deeper operation retried after its conflict and then hit
		// an init-phase failure without reaching scas again (its
		// mReached flag is stale-true, like insfailed after M32).
		// Retrying this level re-enters the chain with fresh flags; a
		// persistent init failure then aborts cleanly.
		return FFalse
	default:
		return FAbort // an earlier operation conflicted: unwind further
	}
}
