package integration

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/linearize"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

// recorder captures operations with strictly ordered logical timestamps
// from a shared atomic counter.
type recorder struct {
	clock atomic.Int64
	mu    sync.Mutex
	ops   []linearize.Op
}

func (r *recorder) record(th int, name string, arg, ret uint64, ok bool, inv, retTS int64) {
	r.mu.Lock()
	r.ops = append(r.ops, linearize.Op{
		Thread: th, Name: name, Arg: arg, Ret: ret, RetOK: ok, Invoke: inv, Return: retTS,
	})
	r.mu.Unlock()
}

// runRecorded executes one recorded window of random operations over a
// queue(A)/stack(B) pair and returns the history. Its moves are the
// naive remove-then-insert composition, recorded as single "move" ops:
// that is the whole point, the naive version claims atomicity it does
// not have. Histories of the paper's Move are TestConformance's
// linearize cells in internal/core.
func runRecorded(t *testing.T, seed uint64, opsPerThread, threads int) ([]linearize.Op, linearize.Objects) {
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
			rng := seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPerThread; i++ {
				op := next() % 6
				inv := rec.clock.Add(1)
				switch op {
				case 0:
					v := val.Add(1)
					q.Enqueue(th, v)
					rec.record(w, "insA", v, 0, true, inv, rec.clock.Add(1))
				case 1:
					v, ok := q.Dequeue(th)
					rec.record(w, "remA", 0, v, ok, inv, rec.clock.Add(1))
				case 2:
					v := val.Add(1)
					s.Push(th, v)
					rec.record(w, "insB", v, 0, true, inv, rec.clock.Add(1))
				case 3:
					v, ok := s.Pop(th)
					rec.record(w, "remB", 0, v, ok, inv, rec.clock.Add(1))
				case 4:
					v, ok := q.Dequeue(th)
					if ok {
						runtime.Gosched() // realistic preemption inside the gap
						s.Push(th, v)
					}
					rec.record(w, "moveAB", 0, v, ok, inv, rec.clock.Add(1))
				default:
					v, ok := s.Pop(th)
					if ok {
						runtime.Gosched() // realistic preemption inside the gap
						q.Enqueue(th, v)
					}
					rec.record(w, "moveBA", 0, v, ok, inv, rec.clock.Add(1))
				}
			}
		}(w)
	}
	wg.Wait()
	return rec.ops, model
}

// TestNaiveCompositionViolatesLinearizability demonstrates Figure 1c on
// real containers: recording the remove-then-insert composition as one
// "atomic" move yields non-linearizable histories once any window
// catches the intermediate state. (Each individual window may pass;
// across many seeds at least one must fail, otherwise the checker—or
// the test—is too weak to see the difference the paper's mechanism
// makes.)
func TestNaiveCompositionViolatesLinearizability(t *testing.T) {
	violations := 0
	for seed := uint64(1); seed <= 120; seed++ {
		hist, model := runRecorded(t, seed, 6, 3)
		if !linearize.Check(model, hist) {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("naive composition produced no linearizability violation in 120 windows; the oracle is not discriminating")
	}
	t.Logf("naive composition: %d/120 windows non-linearizable", violations)
}
