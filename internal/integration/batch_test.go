package integration

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/linearize"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

// These tests aim the linearizability oracle and the conservation
// invariant at moves buffered through a MoveBuffer: every move in a
// flush must remain its own linearizable operation — racing plain
// Move/MoveN traffic, shard grows and plain push/pop noise.

// runRecordedBatched mirrors runRecorded but issues every move through
// a per-thread MoveBuffer, flushing windows of up to flushLen moves.
// Each batched move is recorded with the flush's bracket as its
// interval: the move linearizes somewhere inside Flush, so an interval
// spanning the whole flush contains its linearization point.
func runRecordedBatched(t *testing.T, seed uint64, opsPerThread, threads, flushLen int) ([]linearize.Op, linearize.Objects) {
	rt := newRT(threads + 1)
	setup := rt.RegisterThread()
	q := msqueue.New(setup)
	s := tstack.New(setup)
	model := linearize.Objects{
		Kinds:   []linearize.Kind{linearize.FIFO, linearize.LIFO},
		Initial: [][]linearize.Elem{{{Val: 1}, {Val: 2}}, {{Val: 3}}},
	}
	for _, e := range model.Initial[0] {
		q.Enqueue(setup, e.Val)
	}
	for _, e := range model.Initial[1] {
		s.Push(setup, e.Val)
	}

	rec := &recorder{}
	var val atomic.Uint64
	val.Store(100)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			buf := batch.New(th, flushLen)
			rng := seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			// dirs buffers each pending move's direction (true: q→s) in
			// Add order so results can be recorded under the right name.
			dirs := make([]bool, 0, flushLen)
			flush := func() {
				if len(dirs) == 0 {
					return
				}
				inv := rec.clock.Add(1)
				res := buf.Flush()
				ret := rec.clock.Add(1)
				for i, r := range res {
					name := "moveAB"
					if !dirs[i] {
						name = "moveBA"
					}
					rec.record(w, name, 0, r.Val, r.OK, inv, ret)
				}
				dirs = dirs[:0]
			}
			for i := 0; i < opsPerThread; i++ {
				switch next() % 6 {
				case 0:
					flush() // keep plain ops ordered after buffered moves
					v := val.Add(1)
					inv := rec.clock.Add(1)
					q.Enqueue(th, v)
					rec.record(w, "insA", v, 0, true, inv, rec.clock.Add(1))
				case 1:
					flush()
					inv := rec.clock.Add(1)
					v, ok := q.Dequeue(th)
					rec.record(w, "remA", 0, v, ok, inv, rec.clock.Add(1))
				case 2:
					flush()
					v := val.Add(1)
					inv := rec.clock.Add(1)
					s.Push(th, v)
					rec.record(w, "insB", v, 0, true, inv, rec.clock.Add(1))
				case 3:
					flush()
					inv := rec.clock.Add(1)
					v, ok := s.Pop(th)
					rec.record(w, "remB", 0, v, ok, inv, rec.clock.Add(1))
				case 4:
					if !buf.Add(q, s, 0, 0) {
						flush()
						buf.Add(q, s, 0, 0)
					}
					dirs = append(dirs, true)
				default:
					if !buf.Add(s, q, 0, 0) {
						flush()
						buf.Add(s, q, 0, 0)
					}
					dirs = append(dirs, false)
				}
			}
			flush()
		}(w)
	}
	wg.Wait()
	return rec.ops, model
}

// TestBatchedMoveHistoriesLinearizable is Theorem 2 restated for the
// move buffer: histories where moves commit inside flushes must be
// linearizable against the same atomic-move model as plain Move — the
// flush bracket may not weaken any individual move.
func TestBatchedMoveHistoriesLinearizable(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		for _, flushLen := range []int{2, 4} {
			hist, model := runRecordedBatched(t, seed, 5, 3, flushLen)
			if len(hist) > linearize.MaxOps {
				t.Fatalf("history too long: %d", len(hist))
			}
			if !linearize.Check(model, hist) {
				t.Fatalf("seed %d flush %d: batched-move history NOT linearizable:\n%v",
					seed, flushLen, hist)
			}
		}
	}
}

// TestBatchedMoveConservationRacingGrows circulates unique tokens
// between two deliberately tiny sharded maps through batched keyed
// moves while other threads issue plain Move/MoveN over the same keys
// and a rebalancer forces shard grows and links their sentinels. Every
// successful fan-out is followed by its own thread's Dequeue, which fails
// only on an empty queue, so the audit queue is empty once the workers
// have returned (a worker must not "drain it back" while peers run: the
// copy it takes is a live fan-out's, whose twin is already in a map).
// After the storm every token must exist exactly once across the two
// maps and the queue.
func TestBatchedMoveConservationRacingGrows(t *testing.T) {
	const (
		tokens  = 64
		threads = 4
		ops     = 3000
	)
	rt := newRT(threads + 2)
	setup := rt.RegisterThread()
	ma := hashmap.NewSharded(setup, 2, 1, 2)
	mb := hashmap.NewSharded(setup, 2, 1, 2)
	audit := msqueue.New(setup)
	for i := uint64(1); i <= tokens; i++ {
		if i%2 == 0 {
			ma.Insert(setup, i, i)
		} else {
			mb.Insert(setup, i, i)
		}
	}

	var stop atomic.Bool
	var rwg sync.WaitGroup
	reb := rt.RegisterThread()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for !stop.Load() {
			did := ma.RebalanceStep(reb)
			if mb.RebalanceStep(reb) {
				did = true
			}
			if !did {
				ma.Grow(reb)
				mb.Grow(reb)
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			buf := batch.New(th, 8)
			rng := uint64(w+1) * 0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < ops; i++ {
				k := next()%tokens + 1
				src, dst := ma, mb
				if next()&1 == 0 {
					src, dst = mb, ma
				}
				switch next() % 3 {
				case 0: // batched keyed moves
					if !buf.Add(src, dst, k, k) {
						buf.Flush()
						buf.Add(src, dst, k, k)
					}
					if next()&3 == 0 {
						buf.Flush()
					}
				case 1: // plain keyed move
					th.Move(src, dst, k, k)
				default: // §8 fan-out through the audit queue
					dsts := []core.Inserter{dst, audit}
					th.MoveN(src, dsts, k, []uint64{k, 0})
					audit.Dequeue(th)
				}
			}
			buf.Flush()
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()
	ma.Quiesce(setup)
	mb.Quiesce(setup)

	seen := make(map[uint64]int)
	for {
		v, ok := audit.Dequeue(setup)
		if !ok {
			break
		}
		seen[v]++
	}
	for k := uint64(1); k <= tokens; k++ {
		if v, ok := ma.Remove(setup, k); ok {
			seen[v]++
		}
		if v, ok := mb.Remove(setup, k); ok {
			seen[v]++
		}
	}
	if len(seen) != tokens {
		t.Fatalf("conservation violated: %d distinct tokens, want %d", len(seen), tokens)
	}
	for tok, n := range seen {
		if n != 1 {
			t.Fatalf("token %d seen %d times", tok, n)
		}
	}
}

// TestBatchedMoveConservationUnderPushPopNoise runs batched stack-to-
// stack moves against heavy plain push/pop traffic on the same two top
// words. Tokens are conserved; the push/pop noise uses a disjoint value
// range and must neither leak into nor swallow tokens.
func TestBatchedMoveConservationUnderPushPopNoise(t *testing.T) {
	const (
		tokens  = 48
		threads = 4
		ops     = 4000
		noise   = 1 << 20 // noise values start here; tokens stay below
	)
	rt := core.NewRuntime(core.Config{
		MaxThreads:    threads + 1,
		ArenaCapacity: 1 << 18,
	})
	setup := rt.RegisterThread()
	s1 := tstack.New(setup)
	s2 := tstack.New(setup)
	for i := uint64(1); i <= tokens; i++ {
		if i%2 == 0 {
			s1.Push(setup, i)
		} else {
			s2.Push(setup, i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			buf := batch.New(th, 6)
			rng := uint64(w+1) * 0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			held := make([]uint64, 0, 8) // noise values this thread popped
			for i := 0; i < ops; i++ {
				src, dst := s1, s2
				if next()&1 == 0 {
					src, dst = s2, s1
				}
				switch next() & 3 {
				case 0: // batched moves
					if !buf.Add(src, dst, 0, 0) {
						buf.Flush()
						buf.Add(src, dst, 0, 0)
					}
				case 1:
					buf.Flush()
				case 2: // push/pop noise
					src.Push(th, noise+next()%1024)
				default:
					if v, ok := dst.Pop(th); ok {
						if v >= noise {
							held = append(held, v)
							if len(held) > 4 {
								held = held[1:]
							}
						} else {
							// Popped a circulating token: put it straight
							// back so the final audit still sees it.
							for !dst.Push(th, v) {
							}
						}
					}
				}
			}
			buf.Flush()
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]int)
	drain := func(s *tstack.Stack) {
		for {
			v, ok := s.Pop(setup)
			if !ok {
				return
			}
			if v < noise {
				seen[v]++
			}
		}
	}
	drain(s1)
	drain(s2)
	if len(seen) != tokens {
		t.Fatalf("conservation violated: %d distinct tokens, want %d", len(seen), tokens)
	}
	for tok, n := range seen {
		if n != 1 {
			t.Fatalf("token %d seen %d times", tok, n)
		}
	}
}
