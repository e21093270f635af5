// Package verify provides structural invariant walkers for the
// containers: acyclicity, reachability, ordering, mark hygiene and
// descriptor absence. Stress tests call them at quiescence points; a
// violation indicates memory corruption or a broken linearization, the
// failure modes composition bugs produce.
//
// The walkers require quiescence: they read words without helping and
// treat any descriptor reference as a violation (at quiescence every
// DCAS/MCAS must have been scrubbed from the structures).
package verify

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/word"
)

// Report accumulates invariant violations.
type Report struct {
	Violations []string
}

// Ok reports whether no violation was found.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) addf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Err returns a single error-like string (empty when Ok).
func (r *Report) Err() string {
	if r.Ok() {
		return ""
	}
	s := r.Violations[0]
	if len(r.Violations) > 1 {
		s += fmt.Sprintf(" (+%d more)", len(r.Violations)-1)
	}
	return s
}

// maxWalk bounds traversals so a cycle cannot hang the verifier.
const maxWalk = 1 << 22

// Queue checks a Michael–Scott queue's structure: head reaches tail,
// no cycles, no marks, no descriptors, and returns the element count.
func Queue(a *arena.Arena, head, tail *word.Word) (*Report, int) {
	r := &Report{}
	h := head.Load()
	t := tail.Load()
	if word.IsDesc(h) || word.IsDesc(t) {
		r.addf("queue anchors hold descriptors at quiescence: head=%#x tail=%#x", h, t)
		return r, 0
	}
	if h == word.Nil {
		r.addf("queue head is nil (sentinel missing)")
		return r, 0
	}
	count := 0
	seenTail := h == t
	cur := h
	for steps := 0; ; steps++ {
		if steps > maxWalk {
			r.addf("queue walk exceeded %d steps: cycle suspected", maxWalk)
			return r, count
		}
		next := a.Node(cur).Next.Load()
		if word.IsDesc(next) {
			r.addf("queue node %#x holds descriptor %#x at quiescence", cur, next)
			return r, count
		}
		if word.IsListMarked(next) {
			r.addf("queue node %#x carries a list mark", cur)
			return r, count
		}
		if next == word.Nil {
			break
		}
		cur = next
		count++
		if cur == t {
			seenTail = true
		}
	}
	if !seenTail {
		r.addf("queue tail %#x not reachable from head %#x", t, h)
	}
	if cur != t {
		// Tail may lag by at most one node in MS queues, but only
		// transiently; at quiescence it must be exact or one behind
		// with tail.next == last.
		tn := a.Node(t).Next.Load()
		if word.NodeIndex(tn) != word.NodeIndex(cur) {
			r.addf("queue tail lags more than one node (tail=%#x last=%#x)", t, cur)
		}
	}
	return r, count
}

// Stack checks a Treiber stack: acyclic chain, no marks, no descriptors.
// Works for both the plain and the versioned-top variants (tags are
// ignored during the walk).
func Stack(a *arena.Arena, top *word.Word) (*Report, int) {
	r := &Report{}
	cur := top.Load()
	if word.IsDesc(cur) {
		r.addf("stack top holds descriptor %#x at quiescence", cur)
		return r, 0
	}
	count := 0
	for steps := 0; word.NodeIndex(cur) != 0; steps++ {
		if steps > maxWalk {
			r.addf("stack walk exceeded %d steps: cycle suspected", maxWalk)
			return r, count
		}
		n := a.Node(cur)
		next := n.Next.Load()
		if word.IsDesc(next) {
			r.addf("stack node %#x holds descriptor %#x", cur, next)
			return r, count
		}
		if word.IsListMarked(next) {
			r.addf("stack node %#x carries a list mark", cur)
			return r, count
		}
		count++
		cur = next
	}
	return r, count
}

// List checks a Harris list: strictly ascending (Key, Aux) over unmarked
// nodes, no descriptors, bounded walk. Marked nodes (logically deleted,
// not yet unlinked) are allowed but must not break ordering of the live
// ones. Returns the live element count.
func List(a *arena.Arena, head *word.Word) (*Report, int) {
	r := &Report{}
	cur := head.Load()
	if word.IsDesc(cur) {
		r.addf("list head holds descriptor %#x", cur)
		return r, 0
	}
	count := 0
	haveLast := false
	var lastKey, lastAux uint64
	for steps := 0; word.NodeIndex(cur) != 0; steps++ {
		if steps > maxWalk {
			r.addf("list walk exceeded %d steps: cycle suspected", maxWalk)
			return r, count
		}
		n := a.Node(cur)
		next := n.Next.Load()
		if word.IsDesc(next) {
			r.addf("list node %#x (key %d) holds descriptor %#x", cur, n.Key, next)
			return r, count
		}
		if !word.IsListMarked(next) {
			if haveLast && (n.Key < lastKey || (n.Key == lastKey && n.Aux <= lastAux)) {
				r.addf("list keys out of order: (%d,%d) after (%d,%d)", n.Key, n.Aux, lastKey, lastAux)
			}
			lastKey, lastAux = n.Key, n.Aux
			haveLast = true
			count++
		}
		cur = word.ListUnmarked(next)
	}
	return r, count
}
