package core

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/pad"
	"repro/internal/word"
)

func newRT(threads int) *Runtime {
	return NewRuntime(Config{MaxThreads: threads, ArenaCapacity: 1 << 16})
}

func TestRegisterThreadLimits(t *testing.T) {
	rt := newRT(2)
	a := rt.RegisterThread()
	b := rt.RegisterThread()
	if a.ID() == b.ID() {
		t.Fatal("thread ids must be distinct")
	}
	if rt.RegisteredThreads() != 2 {
		t.Fatalf("RegisteredThreads=%d", rt.RegisteredThreads())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic past MaxThreads")
		}
	}()
	rt.RegisterThread()
}

func TestDefaultsApplied(t *testing.T) {
	rt := NewRuntime(Config{})
	if rt.MaxThreads() != 64 {
		t.Fatalf("default MaxThreads=%d", rt.MaxThreads())
	}
	if rt.Arena() == nil || rt.Manager() == nil || rt.descs == nil {
		t.Fatal("substrate not built")
	}
}

// TestMaxThreadsEncodableLimit: MaxThreads is bounded by what one
// descriptor block per thread fits in the slot index (512), well below
// the thread mark's own limit (word.MaxThreads).
func TestMaxThreadsEncodableLimit(t *testing.T) {
	NewRuntime(Config{MaxThreads: 512})
	for _, n := range []int{513, word.MaxThreads + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for unencodable MaxThreads %d", n)
				}
			}()
			NewRuntime(Config{MaxThreads: n})
		}()
	}
}

// staleCell is a one-word container whose remove and insert, when
// stale is set, first offer scas an old value the word does not hold — a
// linearization CAS that must lose — and then the current one. It
// records every scas result.
type staleCell struct {
	id    uint64
	w     word.Word
	stale bool
	got   []FResult
}

func (c *staleCell) ObjectID() uint64 { return c.id }

// old returns the value the next scas expects: the word's, or, once
// after stale is set, another plain value.
func (c *staleCell) old() uint64 {
	v := c.w.Load()
	if c.stale {
		c.stale = false
		return v + 2
	}
	return v
}

func (c *staleCell) Remove(t *Thread, _ uint64) (uint64, bool) {
	for {
		old := c.old()
		if !t.MoveInFlight() {
			return 7, c.w.CAS(old, old+4)
		}
		r := t.SCASRemove(&c.w, old, old+4, 7, 0)
		c.got = append(c.got, r)
		if r != FFalse {
			return 7, r == FTrue
		}
	}
}

func (c *staleCell) Insert(t *Thread, _, _ uint64) bool {
	for {
		old := c.old()
		if !t.MoveInFlight() {
			return c.w.CAS(old, old+4)
		}
		r := t.SCASInsert(&c.w, old, old+4, 0)
		c.got = append(c.got, r)
		if r != FFalse {
			return r == FTrue
		}
	}
}

// TestLostSCASCounts: every scas that returns FFalse — a lost
// linearization CAS captured by a chain — adds one to the
// calling thread's cas_retries_total stripe, FTrue and FAbort add
// nothing, and so does a failed raw k-word CAS.
func TestLostSCASCounts(t *testing.T) {
	rt := NewRuntime(Config{MaxThreads: 1, ArenaCapacity: 1 << 12, Obs: obs.Config{Metrics: true}})
	th := rt.RegisterThread()
	reg := rt.Obs().Metrics()
	check := func(name string, want uint64, op func()) {
		t.Helper()
		before := reg.ThreadValue(th.ID(), obs.CASRetry)
		op()
		if d := reg.ThreadValue(th.ID(), obs.CASRetry) - before; d != want {
			t.Errorf("%s: cas_retries_total += %d, want %d", name, d, want)
		}
	}
	src := &staleCell{id: rt.NextObjectID()}
	dst := &staleCell{id: rt.NextObjectID()}
	chain := func(name string, srcStale, dstStale bool, wantSrc, wantDst []FResult) {
		t.Helper()
		src.stale, dst.stale, src.got, dst.got = srcStale, dstStale, nil, nil
		check(name, 1, func() {
			if _, ok := th.Move(src, dst, 0, 0); !ok {
				t.Errorf("%s: Move failed", name)
			}
		})
		if !slices.Equal(src.got, wantSrc) || !slices.Equal(dst.got, wantDst) {
			t.Errorf("%s: remove saw %v, insert saw %v; want %v and %v", name, src.got, dst.got, wantSrc, wantDst)
		}
	}
	// The remove's captured CAS loses: the insert unwinds with FAbort
	// (not counted) and the remove retries with FFalse (counted).
	chain("chain, stale remove", true, false, []FResult{FFalse, FTrue}, []FResult{FAbort, FTrue})
	// The insert's captured CAS loses: it alone retries.
	chain("chain, stale insert", false, true, []FResult{FTrue}, []FResult{FFalse, FTrue})
	// An aborted chain loses no CAS.
	src.got = nil
	check("chain, refusing target", 0, func() {
		if _, ok := th.Move(src, &exhaustedTarget{id: rt.NextObjectID()}, 0, 0); ok {
			t.Error("Move into a refusing target succeeded")
		}
	})
	if !slices.Equal(src.got, []FResult{FAbort}) {
		t.Errorf("aborted chain: remove saw %v, want [ABORT]", src.got)
	}

	cur := src.w.Load()
	check("ExecuteKCAS, stale old", 1, func() {
		if ok, _ := th.ExecuteKCAS([]KCASEntry{{W: &src.w, Old: cur + 2, New: cur + 4}, {W: &dst.w, Old: dst.w.Load(), New: 0}}); ok {
			t.Error("ExecuteKCAS with a stale old succeeded")
		}
	})
	check("ExecuteKCAS, current old", 0, func() {
		if ok, _ := th.ExecuteKCAS([]KCASEntry{{W: &src.w, Old: cur, New: cur + 4}, {W: &dst.w, Old: dst.w.Load(), New: 0}}); !ok {
			t.Error("ExecuteKCAS with current olds failed")
		}
	})
}

func TestNodeAllocationLifecycle(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	ref := th.AllocNode()
	n := th.Node(ref)
	if n.Val != 0 || n.Next.Load() != 0 {
		t.Fatal("fresh node not zeroed")
	}
	n.Val = 7
	th.FreeNodeDirect(ref)
	ref2 := th.AllocNode()
	if th.Node(ref2).Val != 0 {
		t.Fatal("recycled node not reset")
	}
	th.RetireNode(ref2)
	th.FlushMemory()
}

func TestHazardSlotHelpers(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	ref := th.AllocNode()
	th.ProtectNode(SlotIns0, ref)
	if got := rt.nodeDom.Get(th.ID(), SlotIns0); got != word.NodeIndex(ref) {
		t.Fatalf("slot holds %d", got)
	}
	th.ClearNode(SlotIns0)
	if rt.nodeDom.Get(th.ID(), SlotIns0) != 0 {
		t.Fatal("slot not cleared")
	}
	th.ProtectNode(SlotRem0, ref)
	th.HoldNode(3, ref)
	th.ClearNode(SlotRem0)
	th.ReleaseHolds()
	for s := 0; s < nodeSlotsPerThread; s++ {
		if rt.nodeDom.Get(th.ID(), s) != 0 {
			t.Fatalf("slot %d survived ClearNode and ReleaseHolds", s)
		}
	}
}

func TestReadPlainValueAndFResultStrings(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	var w word.Word
	w.Store(word.MakeNode(42, 0))
	if th.Read(&w) != word.MakeNode(42, 0) {
		t.Fatal("Read of plain value")
	}
	if FTrue.String() != "true" || FFalse.String() != "false" || FAbort.String() != "ABORT" {
		t.Fatal("FResult strings")
	}
}

func TestObjectIDsMonotone(t *testing.T) {
	rt := newRT(1)
	a := rt.NextObjectID()
	b := rt.NextObjectID()
	if b <= a {
		t.Fatal("object ids must increase")
	}
}

func TestMoveInFlightFlag(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	if th.MoveInFlight() {
		t.Fatal("no move should be in flight")
	}
}

// TestConcurrentRegistration: thread registration is safe from multiple
// goroutines.
func TestConcurrentRegistration(t *testing.T) {
	rt := newRT(32)
	var wg sync.WaitGroup
	ids := make(chan int, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- rt.RegisterThread().ID()
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("id %d handed out twice", id)
		}
		seen[id] = true
	}
}

// TestThreadOwnsItsLines: a Thread is written on every operation (move
// state, hazard shadow) by its owner alone; sized to whole lines, the
// allocator puts it on a line boundary and two threads' records never
// share a line. Pad the struct if a new field breaks this.
func TestThreadOwnsItsLines(t *testing.T) {
	if size := unsafe.Sizeof(Thread{}); size%pad.CacheLineSize != 0 {
		t.Fatalf("Thread is %d bytes, not a whole number of %d-byte lines", size, pad.CacheLineSize)
	}
}
