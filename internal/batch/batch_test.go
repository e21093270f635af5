package batch

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hashmap"
	"repro/internal/msqueue"
	"repro/internal/obs"
	"repro/internal/tstack"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{
		MaxThreads:    threads,
		ArenaCapacity: 1 << 16,
	})
}

func TestFlushMovesInAddOrder(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	for i := uint64(1); i <= 4; i++ {
		q.Enqueue(th, i*10)
	}

	b := New(th, 8)
	for i := 0; i < 4; i++ {
		if !b.Add(q, s, 0, 0) {
			t.Fatalf("Add %d rejected below capacity", i)
		}
	}
	if b.Len() != 4 {
		t.Fatalf("Len=%d want 4", b.Len())
	}
	res := b.Flush()
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	for i, r := range res {
		want := uint64(i+1) * 10 // FIFO source: Add order preserves queue order
		if !r.OK || r.Val != want {
			t.Fatalf("result %d: val=%d ok=%v want %d,true", i, r.Val, r.OK, want)
		}
	}
	if q.Len(th) != 0 || s.Len(th) != 4 {
		t.Fatalf("after flush: q=%d s=%d want 0,4", q.Len(th), s.Len(th))
	}
	if b.Len() != 0 {
		t.Fatal("flush must drain the buffer")
	}
}

// TestEmptySourceFailsFastWithoutDescriptor: a move from an empty
// source fails in the source's init phase and never publishes the
// descriptor it took.
func TestEmptySourceFailsFastWithoutDescriptor(t *testing.T) {
	rt := core.NewRuntime(core.Config{
		MaxThreads:    2,
		ArenaCapacity: 1 << 16,
		Obs:           obs.Config{Metrics: true},
	})
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)

	b := New(th, 4)
	b.Add(q, s, 0, 0) // q is empty
	b.Add(s, q, 0, 0) // so is s
	for i, r := range b.Flush() {
		if r.OK {
			t.Fatalf("empty-source move %d: %+v, want failure", i, r)
		}
	}
	if pub := rt.Obs().Metrics().Snapshot().Get("kcas_publish_total"); pub != 0 {
		t.Fatalf("empty-source moves published %d descriptors, want 0", pub)
	}
}

// TestOccupiedKeyedTargetFailsFast: a move into an occupied key fails
// in the target's init phase, before any descriptor is published, and
// leaves both containers as they were.
func TestOccupiedKeyedTargetFailsFast(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	m := hashmap.New(th, 8)
	q.Enqueue(th, 7)
	m.Insert(th, 42, 99) // target key occupied

	b := New(th, 4)
	b.Add(q, m, 0, 42)
	res := b.Flush()
	if res[0].OK {
		t.Fatalf("occupied-target move: %+v, want failure", res[0])
	}
	if q.Len(th) != 1 {
		t.Fatal("failed move must leave the source unchanged")
	}
	if v, _ := m.Contains(th, 42); v != 99 {
		t.Fatal("failed move disturbed the target")
	}
	// A free key succeeds on the next flush.
	b.Add(q, m, 0, 43)
	if res := b.Flush(); !res[0].OK || res[0].Val != 7 {
		t.Fatalf("retry with free key: %+v", res[0])
	}
}

func TestAddReportsFullBuffer(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)

	b := New(th, 2)
	if b.Cap() != 2 {
		t.Fatalf("Cap=%d want 2", b.Cap())
	}
	if !b.Add(q, s, 0, 0) || !b.Add(q, s, 0, 0) {
		t.Fatal("Adds below capacity must succeed")
	}
	if b.Add(q, s, 0, 0) {
		t.Fatal("Add beyond capacity must report false")
	}
	b.Flush()
	if !b.Add(q, s, 0, 0) {
		t.Fatal("Add must succeed again after Flush")
	}
}

// TestFlushIsNotATransaction pins the documented semantics: a move
// failing mid-flush leaves earlier moves committed and later moves
// attempted — no rollback.
func TestFlushIsNotATransaction(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	m := hashmap.New(th, 8)
	s := tstack.New(th)
	q.Enqueue(th, 1)
	q.Enqueue(th, 2)
	m.Insert(th, 5, 50) // middle move's target key: occupied → it fails

	b := New(th, 4)
	b.Add(q, s, 0, 0) // commits
	b.Add(q, m, 0, 5) // fails (duplicate key)
	b.Add(q, s, 0, 0) // still attempted, commits
	res := b.Flush()
	if !res[0].OK || res[1].OK || !res[2].OK {
		t.Fatalf("want ok,fail,ok; got %v,%v,%v", res[0].OK, res[1].OK, res[2].OK)
	}
	if s.Len(th) != 2 || q.Len(th) != 0 {
		t.Fatalf("s=%d q=%d want 2,0", s.Len(th), q.Len(th))
	}
}

// TestSteadyStateFlushDoesNotAllocate: once warm, a full Add+Flush
// cycle runs without heap allocation (descriptors recycle through the
// thread's free ring, the results slice is reused).
func TestSteadyStateFlushDoesNotAllocate(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	const B = 16
	for i := uint64(0); i < B; i++ {
		q.Enqueue(th, i)
	}
	b := New(th, B)
	cycle := func() {
		for i := 0; i < B; i++ {
			b.Add(q, s, 0, 0)
		}
		for _, r := range b.Flush() {
			if !r.OK {
				t.Fatal("warm flush move failed")
			}
		}
		for i := 0; i < B; i++ {
			b.Add(s, q, 0, 0)
		}
		for _, r := range b.Flush() {
			if !r.OK {
				t.Fatal("warm flush move failed")
			}
		}
	}
	for i := 0; i < 64; i++ { // warm the descriptor block and retire lists
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg > 0.5 {
		t.Fatalf("steady-state flush allocates %.2f objects per cycle, want ~0", avg)
	}
}

// TestFlushDescriptorsRecycleEagerly: with no helpers around, every
// announced descriptor of a flush comes back through the thread's
// retire scan, so the same few slots serve arbitrarily many flushes.
func TestFlushDescriptorsRecycleEagerly(t *testing.T) {
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: 1 << 16,
		Obs: obs.Config{Metrics: true}})
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	const B = 32
	for i := uint64(0); i < B; i++ {
		q.Enqueue(th, i)
	}
	b := New(th, B)
	for round := 0; round < 100; round++ {
		src, dst := core.Remover(q), core.Inserter(s)
		if round&1 == 1 {
			src, dst = s, q
		}
		for i := 0; i < B; i++ {
			b.Add(src, dst, 0, 0)
		}
		for _, r := range b.Flush() {
			if !r.OK {
				t.Fatalf("round %d: move failed", round)
			}
		}
	}
	// 100 rounds × 32 moves = 3200 descriptors through the thread's
	// 78-slot block: each one is recycled, and a scan that failed to free
	// the retired ones would have hit the block's invariant panic.
	if got := rt.Obs().Metrics().Snapshot().Get("kcas_recycles_total"); got != 100*B {
		t.Fatalf("%d descriptors recycled for %d moves", got, 100*B)
	}
}

// exhaustedSource models a source whose remove runs out of arena nodes
// in its init phase, the one panic Thread.Try recovers.
type exhaustedSource struct{}

func (exhaustedSource) Remove(*core.Thread, uint64) (uint64, bool) {
	panic(&fault.ResourceError{Resource: "test arena", Capacity: 1, Hint: "ArenaCapacity"})
}

// TestFlushAfterExhaustionStartsEmpty: a flush that an exhaustion panic
// cut short, recovered by Thread.Try, leaves the thread and the buffer
// usable, and the next flush runs only what was added after it.
func TestFlushAfterExhaustionStartsEmpty(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	q := msqueue.New(th)
	s := tstack.New(th)
	q.Enqueue(th, 1)

	b := New(th, 4)
	b.Add(exhaustedSource{}, s, 0, 0)
	if err := th.Try(func() { b.Flush() }); !errors.Is(err, fault.ErrResourceExhausted) {
		t.Fatalf("Try(Flush) = %v, want exhaustion", err)
	}
	if th.MoveInFlight() || b.Len() != 0 {
		t.Fatalf("after exhaustion: move in flight %v, %d moves buffered", th.MoveInFlight(), b.Len())
	}
	b.Add(q, s, 0, 0)
	if res := b.Flush(); len(res) != 1 || !res[0].OK || res[0].Val != 1 {
		t.Fatalf("post-exhaustion flush: %+v", res)
	}
}
