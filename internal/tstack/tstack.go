// Package tstack implements Treiber's lock-free stack [22] made
// move-ready per §5.2 of the paper (Algorithm 6):
//
//   - the linearization-point CASes (lines S7 and S22) are replaced by
//     scas,
//   - reads of top (lines S5, S15) go through the read operation,
//   - push handles the ABORT result by freeing its node (S8–S10), and
//     pop handles it per the bracketed lines of Algorithm 2.
//
// The read operation and scas run at the call site in their plain case,
// so an operation outside a composition costs what the plain stack's
// does: a read of top is a load and a word.IsDesc test, calling
// Thread.Read only for a descriptor, and an scas is a plain CAS unless
// Thread.MoveInFlight (lines M20–M21, M38–M39). The revalidation at S19 compares top with
// the plain value read at S15, so it is a plain load: a descriptor never
// equals a plain value, the check fails, and the retry's guarded read
// helps it. A node's next is written before the node is published and
// never captured, so pop reads it with a plain load.
//
// The stack is a move-candidate (Lemma 9): push/pop are linearizable
// (Vafeiadis [23] gives a formal proof); instances share nothing
// (requirement 2); both linearization points are CASes on the top
// pointer (requirement 3; the empty return at S17 is not taken by
// successful operations); and the popped value is read at S21, before
// the linearization point (requirement 4).
//
// §7 observes that stack-to-stack moves suffer "false helping in the
// DCAS, due to the ABA-problem that occurs when the same element is
// removed and then inserted again", and proposes "adding a counter to
// the top pointer". That variant is not built: measured on root
// BenchmarkA2_StackABA_*, a counter on top neither cut helps per move
// nor made moves faster on a 2-CPU host (hypotheses/README.md, A2).
package tstack

import (
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/word"
)

// Stack is a move-ready Treiber stack holding uint64 values. Create
// instances with New.
type Stack struct {
	// top is the word every push and pop targets; it owns its line.
	top word.Word
	_   pad.Pad56

	// The field every operation reads and nothing writes after
	// construction has the next line.
	id uint64
	_  [pad.CacheLineSize - 8]byte
}

var _ core.MoveReady = (*Stack)(nil)

// New creates an empty stack.
func New(t *core.Thread) *Stack { return &Stack{id: t.Runtime().NextObjectID()} }

// ObjectID implements core.MoveReady.
func (s *Stack) ObjectID() uint64 { return s.id }

// Push adds val on top and reports success. It fails when the arena
// has no node for it (t.Exhausted then reports true) or, as a move
// target, when the move aborts.
func (s *Stack) Push(t *core.Thread, val uint64) bool {
	ref := t.AllocNode() // S2
	if ref == word.Nil {
		return false
	}
	n := t.Node(ref)
	n.Val = val // S3
	for {       // S4
		ltop := s.top.Load() // S5
		if word.IsDesc(ltop) {
			ltop = t.Read(&s.top)
		}
		n.Next.Store(ltop)     // S6
		if !t.MoveInFlight() { // S7, M38–M39: plain insert
			if !s.top.CAS(ltop, ref) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASInsert(&s.top, ltop, ref, 0); res != core.FTrue { // S7
			if res == core.FAbort { // S8
				t.FreeNodeDirect(ref) // S9
				return false          // S10
			}
			continue
		}
		return true // S11–S12
	}
}

// Pop removes the newest value. ok is false when the stack is empty or a
// surrounding move aborted.
func (s *Stack) Pop(t *core.Thread) (val uint64, ok bool) {
	for { // S14
		ltop := s.top.Load() // S15
		if word.IsDesc(ltop) {
			ltop = t.Read(&s.top)
		}
		if ltop == word.Nil { // S16
			return 0, false // S17
		}
		t.ProtectNode(core.SlotRem0, ltop) // S18: hp ← ltop
		if s.top.Load() != ltop {          // S19
			continue // S20
		}
		n := t.Node(ltop)
		val = n.Val // S21
		ntop := n.Next.Load()
		if !t.MoveInFlight() { // S22, M20–M21: plain remove
			if !s.top.CAS(ltop, ntop) {
				t.LostCAS()
				continue
			}
		} else if res := t.SCASRemove(&s.top, ltop, ntop, val, ltop); res != core.FTrue { // S22
			if res == core.FAbort {
				t.ClearNode(core.SlotRem0)
				return 0, false
			}
			continue
		}
		t.RetireNode(ltop) // S23
		t.ClearNode(core.SlotRem0)
		return val, true // S24
	}
}

// Insert implements core.Inserter (key ignored).
func (s *Stack) Insert(t *core.Thread, _ uint64, val uint64) bool {
	return s.Push(t, val)
}

// Remove implements core.Remover (key ignored).
func (s *Stack) Remove(t *core.Thread, _ uint64) (uint64, bool) {
	return s.Pop(t)
}

// Len counts elements by walking the chain (tests/examples; quiescent
// use only).
func (s *Stack) Len(t *core.Thread) int {
	cur := s.top.Load()
	if word.IsDesc(cur) {
		cur = t.Read(&s.top)
	}
	n := 0
	for ; cur != word.Nil; cur = t.Node(cur).Next.Load() {
		n++
	}
	return n
}

// Drain pops until empty, returning the count (tests/examples).
func (s *Stack) Drain(t *core.Thread) int {
	n := 0
	for {
		if _, ok := s.Pop(t); !ok {
			return n
		}
		n++
	}
}

// TopWord exposes the top anchor for structural verification (package
// verify) and diagnostics; not part of the normal API.
func (s *Stack) TopWord() *word.Word { return &s.top }

// SwapHeads atomically rotates the top values of k stacks: stack i's
// head value becomes stack i-1's (so two stacks exchange heads, three
// rotate, and so on). All k top CASes are decided by one k-word CAS —
// no concurrent operation can observe a partially rotated state. The
// stacks must be pairwise distinct and belong to one runtime.
//
// It returns false (changing nothing) when any stack is observed empty;
// that read is the failed operation's linearization point. Each head
// node is replaced by a fresh node carrying the rotated value; when the
// arena cannot supply the k nodes it also returns false, with
// t.Exhausted reporting true.
func SwapHeads(t *core.Thread, stacks ...*Stack) bool {
	k := len(stacks)
	if k < 2 {
		panic("tstack: SwapHeads needs at least two stacks")
	}
	if k > core.MaxKCASEntries {
		panic("tstack: SwapHeads supports at most core.MaxKCASEntries stacks")
	}
	for i := range stacks {
		for j := 0; j < i; j++ {
			if stacks[j].id == stacks[i].id {
				panic("tstack: SwapHeads requires pairwise distinct stacks")
			}
		}
	}
	// Scratch in fixed arrays, so a call allocates nothing: replacement
	// head nodes (reused across retries), observed heads, CAS entries.
	var refsA, ltopsA [core.MaxKCASEntries]uint64
	var entriesA [core.MaxKCASEntries]core.KCASEntry
	refs, ltops, entries := refsA[:k], ltopsA[:k], entriesA[:k]
	for i := range refs {
		if refs[i] = t.AllocNode(); refs[i] == word.Nil {
			for _, r := range refs[:i] {
				t.FreeNodeDirect(r)
			}
			return false
		}
	}
	for {
		empty := false
		for i, s := range stacks {
			for {
				ltop := s.top.Load()
				if word.IsDesc(ltop) {
					ltop = t.Read(&s.top)
				}
				if ltop == word.Nil {
					empty = true
					break
				}
				// Hold the head beyond this iteration: the per-entry chain
				// hold slots keep all k heads protected at once, where the
				// container slots only cover one.
				t.HoldNode(i, ltop)
				if s.top.Load() == ltop {
					ltops[i] = ltop
					break
				}
			}
			if empty {
				break
			}
		}
		if empty {
			t.ReleaseHolds()
			for _, r := range refs {
				t.FreeNodeDirect(r)
			}
			return false
		}
		for i, s := range stacks {
			from := t.Node(ltops[(i+k-1)%k])
			old := t.Node(ltops[i])
			n := t.Node(refs[i])
			n.Val = from.Val
			n.Next.Store(old.Next.Load())
			entries[i] = core.KCASEntry{
				W: &s.top, Old: ltops[i],
				New: refs[i], HP: ltops[i],
			}
		}
		ok, _ := t.ExecuteKCAS(entries)
		t.ReleaseHolds()
		if ok {
			for _, old := range ltops {
				t.RetireNode(old)
			}
			return true
		}
	}
}
