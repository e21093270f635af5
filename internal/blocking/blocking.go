// Package blocking provides the paper's baseline: "simple blocking
// implementations using test-test-and-set to implement a lock" (§6),
// with the same memory manager as the lock-free objects, plus a
// composed blocking move that holds both objects' locks. Every lock
// acquisition backs off exponentially while the lock is held, as §6's
// baseline does (spin.TTAS.Lock).
//
// The blocking move acquires locks in ObjectID order, the standard
// deadlock-avoidance discipline the paper's composition would need;
// single-object operations take a single lock. As §7 notes, a blocking
// move cannot be combined with non-blocking insert/remove operations —
// every operation here must go through the lock.
package blocking

import (
	"repro/internal/core"
	"repro/internal/pad"
	"repro/internal/spin"
	"repro/internal/word"
)

// Object is the common surface of the blocking containers.
type Object interface {
	ObjectID() uint64
	acquire()
	release()
}

// Source is a blocking container supporting removal under its lock.
type Source interface {
	Object
	removeLocked(t *core.Thread, key uint64) (uint64, bool)
}

// Target is a blocking container supporting insertion under its lock.
type Target interface {
	Object
	insertLocked(t *core.Thread, key, val uint64) bool
}

// lockBase embeds the TTAS lock and identity shared by the containers.
type lockBase struct {
	mu spin.TTAS
	_  pad.Line
	id uint64
}

func (b *lockBase) ObjectID() uint64 { return b.id }

func (b *lockBase) acquire() { b.mu.Lock() }

func (b *lockBase) release() { b.mu.Unlock() }

// Move removes an element from src and inserts it into dst as one
// critical section over both locks, ordered by ObjectID to avoid
// deadlock. It returns the moved value and whether the move happened.
func Move(t *core.Thread, src Source, dst Target, skey, tkey uint64) (uint64, bool) {
	if src.ObjectID() == dst.ObjectID() {
		panic("blocking: Move requires two distinct objects")
	}
	first, second := Object(src), Object(dst)
	if first.ObjectID() > second.ObjectID() {
		first, second = second, first
	}
	first.acquire()
	second.acquire()
	val, ok := src.removeLocked(t, skey)
	if ok {
		if !dst.insertLocked(t, tkey, val) {
			// Undo the removal; with both locks held nobody observed it.
			// All blocking containers here accept re-insertion.
			src.(Target).insertLocked(t, skey, val)
			ok = false
		}
	}
	second.release()
	first.release()
	return val, ok
}

// --- Queue -----------------------------------------------------------------

// Queue is a lock-based FIFO queue (singly linked list with sentinel,
// one TTAS lock).
type Queue struct {
	lockBase
	head uint64 // sentinel node ref
	tail uint64
}

// NewQueue creates an empty blocking queue.
func NewQueue(t *core.Thread) *Queue {
	q := &Queue{}
	q.id = t.Runtime().NextObjectID()
	s := allocNode(t)
	q.head, q.tail = s, s
	return q
}

// Enqueue appends val.
func (q *Queue) Enqueue(t *core.Thread, val uint64) bool {
	ref := allocNode(t)
	n := t.Node(ref)
	n.Val = val
	q.acquire()
	t.Node(q.tail).Next.Store(ref)
	q.tail = ref
	q.release()
	return true
}

// Dequeue removes the oldest value.
func (q *Queue) Dequeue(t *core.Thread) (uint64, bool) {
	q.acquire()
	first := t.Node(q.head).Next.Load()
	if first == word.Nil {
		q.release()
		return 0, false
	}
	val := t.Node(first).Val
	old := q.head
	q.head = first
	q.release()
	t.FreeNodeDirect(old)
	return val, true
}

func (q *Queue) insertLocked(t *core.Thread, _ uint64, val uint64) bool {
	ref := allocNode(t)
	n := t.Node(ref)
	n.Val = val
	t.Node(q.tail).Next.Store(ref)
	q.tail = ref
	return true
}

func (q *Queue) removeLocked(t *core.Thread, _ uint64) (uint64, bool) {
	first := t.Node(q.head).Next.Load()
	if first == word.Nil {
		return 0, false
	}
	val := t.Node(first).Val
	old := q.head
	q.head = first
	t.FreeNodeDirect(old)
	return val, true
}

// Len counts elements (quiescent use).
func (q *Queue) Len(t *core.Thread) int {
	n := 0
	q.acquire()
	for cur := t.Node(q.head).Next.Load(); cur != word.Nil; cur = t.Node(cur).Next.Load() {
		n++
	}
	q.release()
	return n
}

// --- Stack -----------------------------------------------------------------

// Stack is a lock-based LIFO stack (singly linked list, one TTAS lock).
type Stack struct {
	lockBase
	top uint64
}

// NewStack creates an empty blocking stack.
func NewStack(t *core.Thread) *Stack {
	s := &Stack{}
	s.id = t.Runtime().NextObjectID()
	return s
}

// Push adds val on top.
func (s *Stack) Push(t *core.Thread, val uint64) bool {
	ref := allocNode(t)
	n := t.Node(ref)
	n.Val = val
	s.acquire()
	n.Next.Store(s.top)
	s.top = ref
	s.release()
	return true
}

// Pop removes the newest value.
func (s *Stack) Pop(t *core.Thread) (uint64, bool) {
	s.acquire()
	ref := s.top
	if ref == word.Nil {
		s.release()
		return 0, false
	}
	val := t.Node(ref).Val
	s.top = t.Node(ref).Next.Load()
	s.release()
	t.FreeNodeDirect(ref)
	return val, true
}

func (s *Stack) insertLocked(t *core.Thread, _ uint64, val uint64) bool {
	ref := allocNode(t)
	n := t.Node(ref)
	n.Val = val
	n.Next.Store(s.top)
	s.top = ref
	return true
}

func (s *Stack) removeLocked(t *core.Thread, _ uint64) (uint64, bool) {
	ref := s.top
	if ref == word.Nil {
		return 0, false
	}
	val := t.Node(ref).Val
	s.top = t.Node(ref).Next.Load()
	t.FreeNodeDirect(ref)
	return val, true
}

// Len counts elements (quiescent use).
func (s *Stack) Len(t *core.Thread) int {
	n := 0
	s.acquire()
	for cur := s.top; cur != word.Nil; cur = t.Node(cur).Next.Load() {
		n++
	}
	s.release()
	return n
}

var (
	_ Source = (*Queue)(nil)
	_ Target = (*Queue)(nil)
	_ Source = (*Stack)(nil)
	_ Target = (*Stack)(nil)
)

// allocNode takes a fresh node. The baseline has no failure result to
// report a full arena with, so it panics.
func allocNode(t *core.Thread) uint64 {
	ref := t.AllocNode()
	if ref == word.Nil {
		panic("blocking: node arena exhausted")
	}
	return ref
}
