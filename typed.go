package repro

import (
	"sync"
	"sync/atomic"

	"repro/internal/pad"
)

// The containers store uint64 words (shared words are arena handles; see
// ARCHITECTURE.md "Substrate"). Box[T] bridges arbitrary Go values onto them: it rents
// uint64 handles for values of type T, so typed wrappers like QueueOf
// can offer a Go-native API while the moves underneath stay lock-free on
// handles.
//
// The handle table is sharded and mutex-protected; renting and releasing
// handles happens outside the containers' lock-free fast paths (at
// produce/consume boundaries), so composition atomicity is unaffected: a
// handle in flight is owned by exactly one container at a time, exactly
// like any other element.

// Box stores values of type T and rents handles for them.
type Box[T any] struct {
	next   atomic.Uint64 // round-robin shard selector
	shards [boxShards]boxShard[T]
}

const boxShards = 16

type boxShard[T any] struct {
	mu    sync.Mutex
	items []T
	free  []uint32
	_     pad.Line
}

// NewBox creates an empty value store.
func NewBox[T any]() *Box[T] { return &Box[T]{} }

// Put stores v and returns its handle.
func (b *Box[T]) Put(v T) uint64 {
	// Round-robin over shards: contention on any one shard costs only a
	// short critical section.
	si := b.next.Add(1) & (boxShards - 1)
	s := &b.shards[si]
	s.mu.Lock()
	var idx uint32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.items[idx] = v
	} else {
		idx = uint32(len(s.items))
		s.items = append(s.items, v)
	}
	s.mu.Unlock()
	return uint64(si)<<32 | uint64(idx) + 1
}

// Take returns the value for a handle and releases the handle.
func (b *Box[T]) Take(h uint64) T {
	s := &b.shards[(h-1)>>32]
	idx := uint32(h - 1)
	s.mu.Lock()
	v := s.items[idx]
	var zero T
	s.items[idx] = zero // drop references for the GC
	s.free = append(s.free, idx)
	s.mu.Unlock()
	return v
}

// Peek returns the value for a handle without releasing it.
func (b *Box[T]) Peek(h uint64) T {
	s := &b.shards[(h-1)>>32]
	idx := uint32(h - 1)
	s.mu.Lock()
	v := s.items[idx]
	s.mu.Unlock()
	return v
}

// QueueOf is a typed facade over Queue: a lock-free FIFO of T values
// that still composes with every move-ready object (its elements are
// Box handles).
type QueueOf[T any] struct {
	Q   *Queue
	Box *Box[T]
}

// NewQueueOf builds a typed queue sharing the given box (pass the same
// box to containers you intend to move elements between).
func NewQueueOf[T any](t *Thread, box *Box[T]) *QueueOf[T] {
	return &QueueOf[T]{Q: NewQueue(t), Box: box}
}

// Enqueue appends v.
func (q *QueueOf[T]) Enqueue(t *Thread, v T) bool {
	h := q.Box.Put(v)
	if q.Q.Enqueue(t, h) {
		return true
	}
	q.Box.Take(h)
	return false
}

// Dequeue removes the oldest value.
func (q *QueueOf[T]) Dequeue(t *Thread) (T, bool) {
	h, ok := q.Q.Dequeue(t)
	if !ok {
		var zero T
		return zero, false
	}
	return q.Box.Take(h), true
}

// StackOf is a typed facade over Stack.
type StackOf[T any] struct {
	S   *Stack
	Box *Box[T]
}

// NewStackOf builds a typed stack sharing the given box.
func NewStackOf[T any](t *Thread, box *Box[T]) *StackOf[T] {
	return &StackOf[T]{S: NewStack(t), Box: box}
}

// Push adds v on top.
func (s *StackOf[T]) Push(t *Thread, v T) bool {
	h := s.Box.Put(v)
	if s.S.Push(t, h) {
		return true
	}
	s.Box.Take(h)
	return false
}

// Pop removes the newest value.
func (s *StackOf[T]) Pop(t *Thread) (T, bool) {
	h, ok := s.S.Pop(t)
	if !ok {
		var zero T
		return zero, false
	}
	return s.Box.Take(h), true
}

// MapOf is a typed facade over HashMap: a sharded, resizable lock-free
// map from uint64 keys to T values that still composes with every
// move-ready object (its elements are Box handles).
type MapOf[T any] struct {
	M   *HashMap
	Box *Box[T]
}

// NewMapOf builds a typed map sharing the given box (pass the same box
// to containers you intend to move elements between). buckets is the
// total initial bucket count, as in NewHashMap.
func NewMapOf[T any](t *Thread, box *Box[T], buckets int) *MapOf[T] {
	return &MapOf[T]{M: NewHashMap(t, buckets), Box: box}
}

// Put stores v under key; false when the key already exists.
func (m *MapOf[T]) Put(t *Thread, key uint64, v T) bool {
	h := m.Box.Put(v)
	if m.M.Insert(t, key, h) {
		return true
	}
	m.Box.Take(h)
	return false
}

// Delete removes key and returns its value.
func (m *MapOf[T]) Delete(t *Thread, key uint64) (T, bool) {
	h, ok := m.M.Remove(t, key)
	if !ok {
		var zero T
		return zero, false
	}
	return m.Box.Take(h), true
}

// Get returns the value stored under key without removing it. The value
// is read through the handle present at lookup time; a Delete racing the
// read may hand back a value the key no longer maps to — like any
// lookup, the result is a snapshot, not a lock.
func (m *MapOf[T]) Get(t *Thread, key uint64) (T, bool) {
	h, ok := m.M.Contains(t, key)
	if !ok {
		var zero T
		return zero, false
	}
	return m.Box.Peek(h), true
}

// MoveKeyed atomically moves the entry under skey in src to tkey in dst,
// two typed maps backed by the same Box: the handle moves in one step,
// so the value is visible through exactly one map at every instant. Like
// Get, the returned value is read through the handle after the move
// commits: a Delete of tkey racing this call may hand back a value the
// key no longer maps to — a snapshot, not a lock.
func MoveKeyed[T any](t *Thread, src, dst *MapOf[T], skey, tkey uint64) (T, bool) {
	if src.Box != dst.Box {
		panic("repro: MoveKeyed requires maps sharing one Box")
	}
	h, ok := Move(t, src.M, dst.M, skey, tkey)
	if !ok {
		var zero T
		return zero, false
	}
	return dst.Box.Peek(h), true
}

// MoveTyped moves one element between typed containers backed by the
// same Box: the handle moves atomically; the value never leaves the box,
// so it is visible through exactly one container at every instant.
func MoveTyped[T any](t *Thread, src *QueueOf[T], dst *StackOf[T]) (T, bool) {
	if src.Box != dst.Box {
		panic("repro: MoveTyped requires containers sharing one Box")
	}
	h, ok := Move(t, src.Q, dst.S, 0, 0)
	if !ok {
		var zero T
		return zero, false
	}
	return dst.Box.Peek(h), true
}

// SwapHeadsOf atomically rotates the top values of k typed stacks
// sharing one Box (see SwapHeads): the handles rotate in one k-word
// CAS, so every value stays visible through exactly one stack. False
// when any stack is observed empty.
func SwapHeadsOf[T any](t *Thread, stacks ...*StackOf[T]) bool {
	if len(stacks) < 2 {
		panic("repro: SwapHeadsOf needs at least two stacks")
	}
	raw := make([]*Stack, len(stacks))
	for i, s := range stacks {
		if s.Box != stacks[0].Box {
			panic("repro: SwapHeadsOf requires stacks sharing one Box")
		}
		raw[i] = s.S
	}
	return SwapHeads(t, raw...)
}

// TransferKeysOf atomically moves up to 4 keyed values between typed
// maps sharing one Box (see TransferKeys). The returned values are read
// through the moved handles after the commit — snapshots, like
// MoveKeyed's.
func TransferKeysOf[T any](t *Thread, src, dst *MapOf[T], skeys, tkeys []uint64) ([]T, bool) {
	if src.Box != dst.Box {
		panic("repro: TransferKeysOf requires maps sharing one Box")
	}
	hs, ok := TransferKeys(t, src.M, dst.M, skeys, tkeys)
	if !ok {
		return nil, false
	}
	out := make([]T, len(hs))
	for i, h := range hs {
		out[i] = dst.Box.Peek(h)
	}
	return out, true
}

// DrainTyped moves up to n elements from a typed queue to a typed stack
// sharing one Box, one Move at a time (see DrainN). Each move is
// individually linearizable.
func DrainTyped[T any](t *Thread, src *QueueOf[T], dst *StackOf[T], n int) []T {
	if src.Box != dst.Box {
		panic("repro: DrainTyped requires containers sharing one Box")
	}
	hs := DrainN(t, src.Q, dst.S, 0, 0, n)
	out := make([]T, len(hs))
	for i, h := range hs {
		out[i] = dst.Box.Peek(h)
	}
	return out
}
