package core

import "repro/internal/fault"

// Graceful degradation for resource exhaustion. The substrate's one
// fixed-capacity resource — the node arena — historically panics when
// exhausted, which is the right default for a library embedded in a
// batch process but crashes a served system. Descriptors cannot run
// out: each thread's block is sized so that reclamation always frees a
// slot (package kcas).
//
// The exhaustion panic is thrown from the arena's carve path, which runs
// strictly inside an operation's init phase, before any linearization
// CAS or descriptor announcement publishes the operation: an unwinding
// exhaustion panic can leave only thread-local state behind (an
// allocated-but-unannounced descriptor, container hazard protections,
// chain capture buffers). After a failed ExecutePair/Execute (scas
// lines M30–M31 and the chain's conflict path) the thread already holds
// the fresh descriptor those lines took — taking it cannot run out, and
// the decided one it replaces is retired on the spot — so an exhaustion
// in the retried insert finds only an unannounced descriptor, which
// Retire closes at once as the non-panicking path would. Try
// therefore recovers the typed error, resets the thread-local move
// state, and hands the caller a clean error; every shared structure is
// untouched or already completed.

// Try runs op and converts a resource-exhaustion panic
// (*fault.ResourceError, thrown by the arena's carve path) into an
// error matching fault.ErrResourceExhausted, after resetting this
// thread's move state so the thread remains usable. Any
// other panic propagates unchanged. The failed operation did not
// execute: exhaustion unwinds from init-phase code, so no concurrent
// operation can have observed any effect, and the caller may retry
// (ideally after backoff, or after raising ArenaCapacity).
func (t *Thread) Try(op func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		re := fault.AsResourceError(r)
		if re == nil {
			panic(r)
		}
		t.resetAfterExhaustion()
		err = re
	}()
	op()
	return nil
}

// resetAfterExhaustion clears every piece of thread-local operation
// state an exhaustion panic can strand, in dependency order: retire
// the stranded descriptors, then drop the chain buffers and hazard
// protections.
func (t *Thread) resetAfterExhaustion() {
	if t.desc != nil {
		d, ref := t.desc, t.descRef
		t.desc = nil
		t.ltarget = nil
		t.insfailed = false
		t.kctx.Retire(d, ref)
	}
	if t.mdesc != nil {
		d, ref := t.mdesc, t.mref
		t.mdesc = nil
		t.kctx.Retire(d, ref)
	}
	t.mSteps = t.mSteps[:0]
	t.mAbort = false
	t.mFailed = -1
	t.mDepth = 0

	t.ReleaseHolds()
	t.ClearHazards()
}

// TryMove is Move with exhaustion reported as an error instead of a
// panic. On error (matching fault.ErrResourceExhausted) neither object
// changed and the thread is reusable.
func (t *Thread) TryMove(src Remover, dst Inserter, skey, tkey uint64) (val uint64, ok bool, err error) {
	err = t.Try(func() { val, ok = t.Move(src, dst, skey, tkey) })
	return val, ok, err
}

// TryMoveN is MoveN with exhaustion reported as an error.
func (t *Thread) TryMoveN(src Remover, dsts []Inserter, skey uint64, tkeys []uint64) (val uint64, ok bool, err error) {
	err = t.Try(func() { val, ok = t.MoveN(src, dsts, skey, tkeys) })
	return val, ok, err
}

// TryTransferN is TransferN with exhaustion reported as an error.
func (t *Thread) TryTransferN(src Remover, dst Inserter, skeys, tkeys []uint64, out []uint64) (ok bool, err error) {
	err = t.Try(func() { ok = t.TransferN(src, dst, skeys, tkeys, out) })
	return ok, err
}
