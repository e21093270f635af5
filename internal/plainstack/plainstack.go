// Package plainstack is Treiber's stack without the move-ready changes
// (plain CAS linearization points, plain atomic reads of top). It is the
// stack-side baseline of ablation A1; see package plainqueue.
package plainstack

import (
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/word"
)

// Stack is a plain (non-composable) Treiber stack.
type Stack struct {
	top word.Word
	_   pad.Pad56
}

// New creates an empty stack.
func New(t *core.Thread) *Stack { return &Stack{} }

// Push adds val on top.
func (s *Stack) Push(t *core.Thread, val uint64) {
	ref := t.AllocNode()
	if ref == word.Nil { // a baseline has no failure result to report it with
		panic("plainstack: node arena exhausted")
	}
	n := t.Node(ref)
	n.Val = val
	for {
		ltop := s.top.Load()
		n.Next.Store(ltop)
		if s.top.CAS(ltop, ref) {
			return
		}
	}
}

// Pop removes the newest value.
func (s *Stack) Pop(t *core.Thread) (uint64, bool) {
	for {
		ltop := s.top.Load()
		if ltop == word.Nil {
			return 0, false
		}
		t.ProtectNode(core.SlotRem0, ltop)
		if s.top.Load() != ltop {
			continue
		}
		n := t.Node(ltop)
		val := n.Val
		if s.top.CAS(ltop, n.Next.Load()) {
			t.RetireNode(ltop)
			t.ClearNode(core.SlotRem0)
			return val, true
		}
	}
}
