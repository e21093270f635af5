// Package batch implements MoveBuffer, a per-thread buffer of pending
// moves: Add appends a move, Flush runs the buffered moves one Move at a
// time, in Add order.
//
// A flush is NOT a transaction: every move in the buffer is its own
// individually-linearizable operation, exactly as if it had been issued
// by a lone Move call. A concurrent observer can see any prefix of a
// flush applied, and a failed move in the middle of a flush leaves the
// earlier moves committed and the later ones still attempted. Callers
// that need all-or-nothing semantics across objects want MoveN (one
// atomic n-object move), not a MoveBuffer.
//
// A MoveBuffer belongs to one thread, like the *core.Thread it wraps.
package batch

import "repro/internal/core"

// DefaultCapacity is the buffer capacity selected by New when the
// caller passes 0.
const DefaultCapacity = 16

// MoveResult reports the outcome of one buffered move after a flush.
type MoveResult struct {
	// Src/Dst/SKey/TKey echo the Add call.
	Src  core.Remover
	Dst  core.Inserter
	SKey uint64
	TKey uint64
	// Val is the moved value when OK; OK mirrors Move's second return.
	Val uint64
	OK  bool
}

// MoveBuffer collects up to Cap pending moves. Not safe for concurrent
// use: one per thread, like the Thread it wraps.
type MoveBuffer struct {
	t *core.Thread
	// results doubles as the pending list: Add appends the request
	// fields, Flush fills in the outcome in place.
	results []MoveResult
}

// New creates a buffer for t holding up to capacity moves (<= 0 selects
// DefaultCapacity).
func New(t *core.Thread, capacity int) *MoveBuffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &MoveBuffer{t: t, results: make([]MoveResult, 0, capacity)}
}

// Len reports the number of buffered moves.
func (b *MoveBuffer) Len() int { return len(b.results) }

// Cap reports the buffer capacity.
func (b *MoveBuffer) Cap() int { return cap(b.results) }

// Add buffers one move from src to dst (keys as in core.Thread.Move).
// It reports false when the buffer is full — the caller must Flush
// first. Nothing touches the containers until Flush.
func (b *MoveBuffer) Add(src core.Remover, dst core.Inserter, skey, tkey uint64) bool {
	if len(b.results) == cap(b.results) {
		return false
	}
	b.results = append(b.results, MoveResult{Src: src, Dst: dst, SKey: skey, TKey: tkey})
	return true
}

// Flush runs the buffered moves in Add order and returns one result per
// Add; a move that finds the arena full fails like any other (OK false,
// with the thread's Exhausted reporting true) and the flush goes on.
// The returned slice (and the buffer capacity it occupies) is reused by
// the next Add/Flush cycle; callers that keep results across flushes
// must copy.
func (b *MoveBuffer) Flush() []MoveResult {
	out := b.results
	b.results = b.results[:0]
	for i := range out {
		r := &out[i]
		r.Val, r.OK = b.t.Move(r.Src, r.Dst, r.SKey, r.TKey)
	}
	return out
}
