package core

import (
	"repro/internal/kcas"
	"repro/internal/word"
)

// Raw k-word CAS access and the drain. ExecuteKCAS is the building
// block containers use for compositions whose CAS arguments they can
// compute up front (tstack.SwapHeads); DrainN is a run of
// individually-linearizable moves.

// MaxKCASEntries is the widest composition the engine supports (the
// descriptor's inline entry capacity).
const MaxKCASEntries = kcas.MaxEntries

// KCASEntry is one word of a raw k-word CAS: replace *W == Old with New.
// HP, when non-zero, is a node reference whose memory contains W; it is
// carried to helpers via the descriptor so they can mirror the caller's
// protection.
type KCASEntry struct {
	W        *word.Word
	Old, New uint64
	HP       uint64
}

// ExecuteKCAS atomically applies every entry's CAS, or none: all words
// must hold their Old values for the operation to succeed. Entries must
// target pairwise distinct words (1..kcas.MaxEntries of them) that the
// caller has protected for the duration of the call. On failure it
// reports the index of an entry whose word did not match.
//
// This is the raw engine entry point: it performs no container
// init-phases, so the caller owns the retry loop. It must not run
// inside a Move/MoveN (the thread's descriptor state is in use).
func (t *Thread) ExecuteKCAS(entries []KCASEntry) (bool, int) {
	if t.MoveInFlight() {
		panic("core: ExecuteKCAS inside a move")
	}
	if len(entries) == 0 {
		panic("core: ExecuteKCAS needs at least one entry")
	}
	if len(entries) > kcas.MaxEntries {
		panic("core: ExecuteKCAS supports at most kcas.MaxEntries entries")
	}
	d, ref := t.kctx.AllocK()
	d.N = len(entries)
	for i, e := range entries {
		d.Entries[i] = kcas.Entry{Ptr: e.W, Old: e.Old, New: e.New, HP: word.NodeIndex(e.HP)}
	}
	ok, failed := t.kctx.Execute(d, ref)
	t.recycleDesc(d, ref)
	return ok, failed
}

// DrainN moves up to n elements from src to dst, one Move at a time.
// Each move is its own individually-linearizable operation — DrainN is
// a pipeline, not a transaction; it stops at the first failed move
// (empty source or refusing target).
//
// skey/tkey are passed to every move (keyed targets that need distinct
// keys should drain through MoveBatch instead). out, when non-nil,
// receives the moved values. It returns how many elements moved.
func (t *Thread) DrainN(src Remover, dst Inserter, skey, tkey uint64, n int, out []uint64) int {
	if sameObject(src, dst) {
		panic("core: DrainN requires two distinct objects")
	}
	moved := 0
	for moved < n {
		val, ok := t.Move(src, dst, skey, tkey)
		if !ok {
			break
		}
		if out != nil {
			out[moved] = val
		}
		moved++
	}
	return moved
}
