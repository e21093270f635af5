package core

import (
	"repro/internal/kcas"
	"repro/internal/word"
)

// This file implements composition as one engine: a chain of steps, a
// remove followed by removes and inserts, whose linearization CASes are
// captured one descriptor entry per step and decided together. Move is
// the two-step chain (one remove, one insert), MoveN one remove feeding
// n inserts (§8), TransferN k independent remove/insert pairs. The
// chain's shape picks the protocol once: two steps run the paper's pair
// DCAS (Algorithm 4), wider chains the k-word CAS.
//
// Failure handling generalizes the DCAS retry rules: when the decision
// reports a conflict at entry i, steps 0..i-1 keep their captured CAS
// arguments and only steps i.. re-run their init-phases (entry 0 being
// the first remove, which restarts everything, like FIRSTFAILED). A
// step that would capture a word an earlier step already captured
// aborts the chain the way a failed init-phase does.

// MoveN atomically removes one element from src and inserts it into
// every target: the paper's §8 extension ("remove an item from one
// object and insert it into n others atomically"). All n+1
// linearization CASes are decided together; with one target MoveN is
// Move, decided by the pair DCAS.
//
// Targets must be pairwise distinct objects and distinct from the
// source. It returns the moved value and whether the move happened; on
// failure no object is changed.
func (t *Thread) MoveN(src Remover, dsts []Inserter, skey uint64, tkeys []uint64) (uint64, bool) {
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
		for j := 0; j < i; j++ {
			if sameObject(dsts[j], d) {
				panic("core: MoveN requires pairwise distinct targets")
			}
		}
	}

	t.steps = t.steps[:1]
	for i, d := range dsts {
		t.steps = append(t.steps, chainStep{ins: d, key: tkeys[i]})
	}
	return t.runChain(src, skey)
}

// TransferN atomically moves k elements from src to dst: element i is
// removed under skeys[i] and inserted under tkeys[i], with all 2k
// linearization CASes decided together. No concurrent operation can
// observe a state where some of the elements have moved and others have
// not. On success it returns the k removed values in the thread's own
// result buffer, which stays valid until the thread's next TransferN;
// its capacity is k, so an append to it copies.
//
// src and dst must be distinct objects and the keys within each side
// pairwise distinct; 1..kcas.MaxEntries/2 key pairs. Misuse panics.
// TransferN fails, changing nothing, when any source key is absent, any
// target insert is refused, or two steps would change one word — two
// inserts linked into one gap of a list, two pushes onto one stack, two
// enqueues behind one tail: a CAS captured from a state the other step
// changes cannot be composed with it, so the chain aborts.
func (t *Thread) TransferN(src Remover, dst Inserter, skeys, tkeys []uint64) ([]uint64, bool) {
	checkTransfer(src, dst, skeys, tkeys)
	k := len(skeys)
	t.steps = append(t.steps[:1], chainStep{ins: dst, key: tkeys[0]})
	for i := 1; i < k; i++ {
		t.steps = append(t.steps, chainStep{rem: src, key: skeys[i]}, chainStep{ins: dst, key: tkeys[i]})
	}
	if _, ok := t.runChain(src, skeys[0]); !ok {
		return nil, false
	}
	out := t.xfer[:k:k]
	for i := range out {
		out[i] = t.vals[2*i]
	}
	return out, true
}

// checkTransfer panics unless TransferN(src, dst, skeys, tkeys) is well
// formed: 1..kcas.MaxEntries/2 key pairs, one target key per source key,
// keys pairwise distinct within each slice, and two distinct objects.
func checkTransfer(src Remover, dst Inserter, skeys, tkeys []uint64) {
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
}

// runChain drives the chain t.steps, whose step 0 is src.Remove(skey),
// to completion and returns step 0's removed value (Algorithm 3, lines
// M2–M8). The chain runs inside step 0's Remove call: each step's scas
// captures its entry and invokes the next step, so the whole chain sits
// on the stack until the deepest scas decides it.
func (t *Thread) runChain(src Remover, skey uint64) (uint64, bool) {
	if t.desc != nil {
		panic("core: nested Move on one thread")
	}
	t.desc, t.dref = t.allocDesc() // M2–M3: res = UNDECIDED
	t.abort = false

	val, ok := src.Remove(t, skey) // M6

	d, ref := t.desc, t.dref
	t.desc = nil // M7
	if len(t.steps) > 2 {
		t.ReleaseHolds()
	}
	t.kctx.Retire(d, ref)
	return val, ok // M8
}

// allocDesc takes a fresh descriptor of the protocol the chain's shape
// picks: the pair DCAS for two steps, the k-word CAS for more.
func (t *Thread) allocDesc() (*kcas.Desc, uint64) {
	if len(t.steps) == 2 {
		return t.kctx.AllocPair()
	}
	return t.kctx.AllocK()
}

// capture is the one scas body of a composition: it records the
// active step's linearization CAS as the entry at the current depth
// (lines M11–M14, M24–M27), with hp the node whose memory contains w,
// and runs the rest of the chain from it. A remove also records its
// element, which the following insert receives.
func (t *Thread) capture(w *word.Word, old, new, element, hp uint64, removing bool) FResult {
	if t.abort {
		return FAbort
	}
	j := t.depth
	d := t.desc
	for k := 0; k < j; k++ {
		if d.Entries[k].Ptr == w {
			// Step j would change a word step k already captured: its CAS
			// was read from a state step k replaces, so the two cannot be
			// decided together. The chain fails like an init-phase
			// failure (M17–M18).
			t.abort = true
			return FAbort
		}
	}
	t.reached[j] = true // M15
	d.Entries[j] = kcas.Entry{Ptr: w, Old: old, New: new, HP: word.NodeIndex(hp)}
	if removing {
		t.vals[j] = element
	}
	// Hold the node beyond this container call only when a later step on
	// the same side will reuse the container hazard slots this capture
	// was made under; otherwise they stay published until the chain is
	// decided.
	for k := j + 1; k < len(t.steps); k++ {
		if (t.steps[k].rem != nil) == removing {
			t.HoldNode(j, hp)
			break
		}
	}
	if j == len(t.steps)-1 {
		return t.decide(j)
	}

	// Invoke the next step, whose scas captures entry j+1.
	next := &t.steps[j+1]
	t.depth = j + 1
	t.reached[j+1] = false
	var ok bool
	if next.rem != nil {
		_, ok = next.rem.Remove(t, next.key)
	} else {
		t.vals[j+1] = t.vals[j] // the element an insert receives
		ok = next.ins.Insert(t, next.key, t.vals[j])
	}
	t.depth = j

	if ok {
		return FTrue
	}
	if t.abort {
		return FAbort
	}
	if !t.reached[j+1] { // M17–M18
		// The deeper step's init-phase failed outright (empty source,
		// full or duplicate-key target): the whole chain must abort.
		t.abort = true
		return FAbort
	}
	// The deeper step aborted because of a conflict in the decision.
	switch {
	case t.failed == j:
		return FFalse // our word conflicted: retry this operation
	case t.failed > j:
		// The deeper operation retried after its conflict and then hit
		// an init-phase failure without reaching scas again (its reached
		// flag is stale-true). Retrying this level re-enters the chain
		// with fresh flags; a persistent init failure then aborts
		// cleanly.
		return FFalse
	default:
		return FAbort // an earlier operation conflicted: unwind further
	}
}

// decide executes the chain's multi-word CAS once entry j, the last, is
// captured (line M28), and turns a conflict into the retry protocol:
// the pair DCAS's FirstFailed is failed entry 0 and SecondFailed entry
// 1.
func (t *Thread) decide(j int) FResult {
	d, ref := t.desc, t.dref
	failed := -1
	if j == 1 {
		switch t.kctx.ExecutePair(d, ref) {
		case kcas.FirstFailed:
			failed = 0
		case kcas.SecondFailed:
			failed = 1
		}
	} else {
		d.N = j + 1
		if ok, i := t.kctx.Execute(d, ref); !ok {
			failed = i
		}
	}
	t.failed = failed
	if failed < 0 {
		return FTrue // M37
	}
	// M30–M31: a helper may still reference the failed descriptor, so
	// take a fresh one carrying the entries that stay valid (all before
	// the failed one).
	nd, nref := t.allocDesc()
	copy(nd.Entries[:failed], d.Entries[:failed])
	t.kctx.Retire(d, ref)
	t.desc, t.dref = nd, nref
	if failed == j {
		return FFalse // M35–M36: this operation's word conflicted: retry it
	}
	return FAbort // M33–M34: an earlier operation conflicted: unwind to it
}
