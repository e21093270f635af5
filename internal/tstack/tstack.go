// Package tstack implements Treiber's lock-free stack [22] made
// move-ready per §5.2 of the paper (Algorithm 6):
//
//   - the linearization-point CASes (lines S7 and S22) are replaced by
//     scas,
//   - reads of top (lines S5, S15, S19) go through the read operation,
//   - push handles the ABORT result by freeing its node (S8–S10), and
//     pop handles it per the bracketed lines of Algorithm 2.
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
// the top pointer" at some cost to the normal operations. NewVersioned
// builds that variant: top carries a 22-bit modification counter in the
// reference's tag field, so a top value never recurs within 4M
// operations. Ablation A2 measures both effects.
package tstack

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/word"
)

// Stack is a move-ready Treiber stack holding uint64 values. Create
// instances with New or NewVersioned.
type Stack struct {
	// top is the word every push and pop targets; it owns its line.
	top word.Word
	_   pad.Pad56

	// The fields every operation reads and nothing writes after
	// construction share the next line.
	id uint64

	// versioned selects the §7 ABA-counter variant: every successful
	// push/pop bumps the tag bits of the top reference.
	versioned bool
	_         [pad.CacheLineSize - 16]byte

	// retries counts lost top CASes, bumped only on the contention
	// path — on a line of its own, so a loser does not also invalidate
	// the header under the winners.
	retries atomic.Uint64
	_       pad.Pad56
}

var _ core.MoveReady = (*Stack)(nil)

func newStack(t *core.Thread, versioned bool) *Stack {
	s := &Stack{id: t.Runtime().NextObjectID(), versioned: versioned}
	if reg := t.Runtime().Obs().Metrics(); reg != nil {
		// Registry pull: reads the same atomic the legacy accessor
		// (Retries) reports, summed across every container registered
		// under the name.
		reg.AddFunc("cas_retries_total", s.Retries)
	}
	return s
}

// New creates an empty stack (the paper's default configuration).
func New(t *core.Thread) *Stack { return newStack(t, false) }

// NewVersioned creates an empty stack with the §7 ABA counter on top.
func NewVersioned(t *core.Thread) *Stack { return newStack(t, true) }

// ObjectID implements core.MoveReady.
func (s *Stack) ObjectID() uint64 { return s.id }

// Versioned reports whether the ABA counter is enabled (tests).
func (s *Stack) Versioned() bool { return s.versioned }

// isNil treats any reference with node index 0 as empty: the versioned
// variant encodes "empty after k operations" as (index 0, tag k).
func isNil(ref uint64) bool { return word.NodeIndex(ref) == 0 }

// newTop computes the reference to install for a transition to node
// index idx, bumping the version tag when enabled.
func (s *Stack) newTop(ltop, ref uint64) uint64 {
	if !s.versioned {
		return word.MakeNode(word.NodeIndex(ref), 0)
	}
	return word.MakeNode(word.NodeIndex(ref), word.NodeTag(ltop)+1)
}

// Push adds val on top and reports success. A plain push always
// succeeds; as a move target it fails when the move aborts.
func (s *Stack) Push(t *core.Thread, val uint64) bool {
	ref := t.AllocNode() // S2
	n := t.Node(ref)
	n.Val = val // S3
	for {       // S4
		ltop := t.Read(&s.top)                                    // S5
		n.Next.Store(ltop)                                        // S6
		res := t.SCASInsert(&s.top, ltop, s.newTop(ltop, ref), 0) // S7
		if res == core.FAbort {                                   // S8
			t.FreeNodeDirect(ref) // S9
			return false          // S10
		}
		if res == core.FTrue { // S11
			t.BackoffReset()
			return true // S12
		}
		s.retries.Add(1)
		t.BackoffWait()
	}
}

// Pop removes the newest value. ok is false when the stack is empty or a
// surrounding move aborted.
func (s *Stack) Pop(t *core.Thread) (val uint64, ok bool) {
	for { // S14
		ltop := t.Read(&s.top) // S15
		if isNil(ltop) {       // S16
			return 0, false // S17
		}
		t.ProtectNode(core.SlotRem0, ltop) // S18: hp ← ltop
		if t.Read(&s.top) != ltop {        // S19
			continue // S20
		}
		n := t.Node(ltop)
		val = n.Val // S21
		lnext := n.Next.Load()
		res := t.SCASRemove(&s.top, ltop, s.newTop(ltop, lnext), val, ltop) // S22
		if res == core.FTrue {
			t.RetireNode(ltop) // S23
			t.ClearNode(core.SlotRem0)
			t.BackoffReset()
			return val, true // S24
		}
		if res == core.FAbort {
			t.ClearNode(core.SlotRem0)
			return 0, false
		}
		s.retries.Add(1)
		t.BackoffWait()
	}
}

// Retries reports how many linearization CASes the stack has lost to
// concurrent writers (the registry's cas_retries_total).
func (s *Stack) Retries() uint64 { return s.retries.Load() }

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
	n := 0
	for cur := t.Read(&s.top); !isNil(cur); cur = t.Node(cur).Next.Load() {
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
// node is replaced by a fresh node carrying the rotated value, so the
// versioned variant's ABA counters bump exactly as a pop+push would.
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
	refs := make([]uint64, k) // replacement head nodes, reused across retries
	for i := range refs {
		refs[i] = t.AllocNode()
	}
	ltops := make([]uint64, k)
	entries := make([]core.KCASEntry, k)
	for {
		empty := false
		for i, s := range stacks {
			for {
				ltop := t.Read(&s.top)
				if isNil(ltop) {
					empty = true
					break
				}
				// Hold the head beyond this iteration: the per-entry chain
				// hold slots keep all k heads protected at once, where the
				// container slots only cover one.
				t.HoldNode(i, ltop)
				if t.Read(&s.top) == ltop {
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
				New: s.newTop(ltops[i], refs[i]), HP: ltops[i],
			}
		}
		ok, _ := t.ExecuteKCAS(entries)
		t.ReleaseHolds()
		if ok {
			for _, old := range ltops {
				t.RetireNode(old)
			}
			t.BackoffReset()
			return true
		}
		for _, s := range stacks {
			s.retries.Add(1)
		}
		t.BackoffWait()
	}
}
