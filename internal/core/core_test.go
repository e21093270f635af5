package core

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/pad"
	"repro/internal/word"
)

func newRT(threads int) *Runtime {
	return NewRuntime(Config{MaxThreads: threads, ArenaCapacity: 1 << 16, DescCapacity: 1 << 12})
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
	if rt.Arena() == nil || rt.Manager() == nil || rt.KCASPool() == nil {
		t.Fatal("substrate not built")
	}
}

func TestMaxThreadsEncodableLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unencodable MaxThreads")
		}
	}()
	NewRuntime(Config{MaxThreads: word.MaxThreads + 1})
}

func TestSCASPlainModeIsCAS(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	var w word.Word
	w.Store(10)
	if th.SCASRemove(&w, 10, 20, 99, 0) != FTrue {
		t.Fatal("plain SCASRemove must behave as CAS (success)")
	}
	if w.Load() != 20 {
		t.Fatal("value not swapped")
	}
	if th.SCASRemove(&w, 10, 30, 99, 0) != FFalse {
		t.Fatal("plain SCASRemove must behave as CAS (failure)")
	}
	if th.SCASInsert(&w, 20, 30, 0) != FTrue {
		t.Fatal("plain SCASInsert must behave as CAS (success)")
	}
	if th.SCASInsert(&w, 20, 40, 0) != FFalse {
		t.Fatal("plain SCASInsert must behave as CAS (failure)")
	}
	if w.Load() != 30 {
		t.Fatalf("final value %d", w.Load())
	}
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
	th.ProtectNode(SlotRem1, ref)
	th.ClearHazards()
	for s := 0; s < nodeSlotsPerThread; s++ {
		if rt.nodeDom.Get(th.ID(), s) != 0 {
			t.Fatalf("slot %d survived ClearHazards", s)
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

func TestBackoffToggles(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	if th.Backoff() != nil {
		t.Fatal("backoff must default to disabled")
	}
	th.BackoffWait()  // no-op
	th.BackoffReset() // no-op
	th.EnableBackoff(4, 16)
	if th.Backoff() == nil {
		t.Fatal("backoff not enabled")
	}
	th.BackoffWait()
	if th.Backoff().Current() == 0 {
		t.Fatal("wait did not advance")
	}
	th.BackoffReset()
	if th.Backoff().Current() != 0 {
		t.Fatal("reset did not clear")
	}
	th.DisableBackoff()
	if th.Backoff() != nil {
		t.Fatal("disable failed")
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
