// Package pqueue implements a move-ready lock-free priority queue on
// top of the ordered list, in the style of Lotan & Shavit's list-based
// priority queues: RemoveMin takes the smallest priority, and both
// linearization points are pointer CASes, so the queue composes with
// every other move-ready object.
//
// This is a third demonstration (beyond the paper's queue and stack, and
// this repository's list/map) that the move-candidate conditions of
// Definition 1 capture a broad class of structures.
//
// Priorities need not be unique: internally an element's key is its
// priority in the high 48 bits plus a per-thread uniquifier below, so
// concurrent inserts at equal priority don't collide. Priorities at or
// above 2^48 are rejected.
package pqueue

import (
	"repro/internal/core"
	"repro/internal/harrislist"
)

// uniqBits is the width of the uniquifier suffix.
const uniqBits = 16

// MaxPriority is the largest usable priority.
const MaxPriority = (uint64(1) << (64 - uniqBits)) - 1

// PQueue is a move-ready min-priority queue of uint64 values.
type PQueue struct {
	l  harrislist.List // shares the queue's identity
	id uint64
}

var _ core.MoveReady = (*PQueue)(nil)

// New creates an empty priority queue.
func New(t *core.Thread) *PQueue {
	pq := &PQueue{id: t.Runtime().NextObjectID()}
	pq.l.Init(pq.id)
	return pq
}

// ObjectID implements core.MoveReady.
func (p *PQueue) ObjectID() uint64 { return p.id }

// Insert adds val with the given priority. It returns false only when
// used as a move target and the move aborts, or when priority exceeds
// MaxPriority.
func (p *PQueue) Insert(t *core.Thread, priority, val uint64) bool {
	if priority > MaxPriority {
		return false
	}
	// The uniquifier mixes the thread id with a per-call probe counter;
	// a rare collision just retries with the next value. During a move,
	// each list insert that fails on a duplicate key returns without
	// reaching scas, so retrying with a fresh key keeps the move's
	// abort/retry protocol intact.
	base := priority << uniqBits
	h := uint64(t.ID())<<7 ^ t.Seq()
	for probe := uint64(0); probe < 1<<uniqBits; probe++ {
		key := base | ((h + probe) & ((1 << uniqBits) - 1))
		if p.l.Insert(t, key, val) {
			return true
		}
		if t.MoveInFlight() && probe > 8 {
			// Inside a move, give up quickly after a few probes: the
			// composition can abort cleanly rather than spin.
			return false
		}
	}
	return false
}

// RemoveMin removes the element with the smallest priority.
func (p *PQueue) RemoveMin(t *core.Thread) (priority, val uint64, ok bool) {
	key, val, ok := p.l.RemoveMin(t)
	return key >> uniqBits, val, ok
}

// Min peeks at the smallest priority.
func (p *PQueue) Min(t *core.Thread) (priority, val uint64, ok bool) {
	key, val, ok := p.l.Min(t)
	return key >> uniqBits, val, ok
}

// Remove implements core.Remover: the key is ignored and the minimum is
// removed, making the priority queue a move source ("take the most
// urgent item").
func (p *PQueue) Remove(t *core.Thread, _ uint64) (uint64, bool) {
	_, val, ok := p.RemoveMin(t)
	return val, ok
}

// Len counts elements (quiescent use).
func (p *PQueue) Len(t *core.Thread) int { return p.l.Len(t) }
