package repro_test

// Exhaustion-path coverage for the facade: a full node arena is an
// ordinary failed result — ok false, with Thread.Exhausted reporting
// true once — and the thread stays usable afterwards.

import (
	"math"
	"testing"

	"repro"
)

// starvedArena holds the reserved prefix and one per-thread node batch
// (200): the setup thread's first allocation takes the whole arena, so
// any node-allocating op on a second thread finds it empty.
const starvedArena = 208

func TestMoveExhaustionIsAResult(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 3, ArenaCapacity: starvedArena})
	setup := rt.RegisterThread()
	a := repro.NewHashMap(setup, 8)
	b := repro.NewHashMap(setup, 8)
	if !a.Insert(setup, 1, 10) || !a.Insert(setup, 2, 20) {
		t.Fatal("seed inserts failed")
	}

	starved := rt.RegisterThread()
	if _, ok := repro.Move(starved, a, b, 2, 2); ok || !starved.Exhausted() {
		t.Fatal("Move on a starved thread must fail for want of nodes")
	}
	// The failure is stable (no partial state wedging the thread) …
	if _, ok := repro.Move(starved, a, b, 2, 2); ok || !starved.Exhausted() {
		t.Fatal("second Move on the starved thread")
	}
	// … the op never executed …
	if _, in := b.Contains(setup, 2); in {
		t.Fatal("failed Move leaked the entry into the destination")
	}
	if v, in := a.Contains(setup, 2); !in || v != 20 {
		t.Fatal("failed Move damaged the source entry")
	}
	// … the starved thread's node-free work still runs, and its failure
	// is the data's …
	if _, ok := repro.Move(starved, a, b, 99, 99); ok || starved.Exhausted() {
		t.Fatal("absent-key Move must fail without Exhausted")
	}
	// … and the thread with nodes keeps working.
	if _, ok := repro.Move(setup, a, b, 2, 2); !ok {
		t.Fatal("healthy thread broken by peer's exhaustion")
	}
}

func TestTransferKeysAndDrainExhaustionIsAResult(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 3, ArenaCapacity: starvedArena})
	setup := rt.RegisterThread()
	a := repro.NewHashMap(setup, 8)
	b := repro.NewHashMap(setup, 8)
	q1 := repro.NewQueue(setup)
	q2 := repro.NewQueue(setup)
	for i := uint64(1); i <= 4; i++ {
		a.Insert(setup, i, 100+i)
		q1.Enqueue(setup, i)
	}

	starved := rt.RegisterThread()
	if _, ok := repro.TransferKeys(starved, a, b, []uint64{2, 3}, []uint64{2, 3}); ok || !starved.Exhausted() {
		t.Fatal("TransferKeys on a starved thread must fail for want of nodes")
	}
	if got := repro.DrainN(starved, q1, q2, 0, 0, 3); len(got) != 0 || !starved.Exhausted() {
		t.Fatalf("DrainN on a starved thread moved %v", got)
	}
	// Nothing moved; the healthy thread still drains.
	if a.Len(setup) != 4 || b.Len(setup) != 0 || q1.Len(setup) != 4 || q2.Len(setup) != 0 {
		t.Fatalf("failed calls moved elements: maps %d/%d, queues %d/%d",
			a.Len(setup), b.Len(setup), q1.Len(setup), q2.Len(setup))
	}
	if got := repro.DrainN(setup, q1, q2, 0, 0, 2); len(got) != 2 {
		t.Fatalf("healthy DrainN moved %d, want 2", len(got))
	}
	// A non-positive count moves nothing and returns empty, not a
	// make([]uint64, n) panic.
	for _, n := range []int{0, -1} {
		if got := repro.DrainN(setup, q1, q2, 0, 0, n); len(got) != 0 {
			t.Fatalf("DrainN(n=%d) moved %d", n, len(got))
		}
	}
	if q1.Len(setup) != 2 || q2.Len(setup) != 2 {
		t.Fatalf("non-positive drains moved elements: %d/%d", q1.Len(setup), q2.Len(setup))
	}
}

// TestDrainNUnboundedCount: n bounds the moves, not an allocation made
// up front — n = math.MaxInt drains what there is and returns it, where
// a make([]uint64, n) panicked with "makeslice: len out of range".
func TestDrainNUnboundedCount(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 1})
	th := rt.RegisterThread()
	q, s := repro.NewQueue(th), repro.NewStack(th)
	for i := uint64(1); i <= 3; i++ {
		q.Enqueue(th, i)
	}
	if got := repro.DrainN(th, q, s, 0, 0, math.MaxInt); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("DrainN(MaxInt) = %v, want [1 2 3]", got)
	}
	if got := repro.DrainN(th, s, q, 0, 0, math.MaxInt); len(got) != 3 || got[0] != 3 {
		t.Fatalf("DrainN(MaxInt) back = %v, want [3 2 1]", got)
	}
}

func TestArenaExhaustionKeepsQueueIntact(t *testing.T) {
	// The constructor takes a node, then sustained Enqueue must hit the
	// wall as failed enqueues, not a panic.
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: starvedArena})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	n, failed := 0, 0
	for i := 0; i < 400; i++ {
		if q.Enqueue(th, uint64(n+1)) {
			n++
			continue
		}
		failed++
		if !th.Exhausted() {
			t.Fatalf("enqueue %d failed without Exhausted", i)
		}
	}
	if failed == 0 || n == 0 {
		t.Fatalf("%d enqueues succeeded and %d failed, want both", n, failed)
	}
	// The queue is intact: everything that reported success is there.
	if got := q.Len(th); got != n {
		t.Fatalf("queue holds %d elements, %d enqueues succeeded", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := q.Dequeue(th); !ok || v != uint64(i+1) {
			t.Fatalf("dequeue %d: %d,%v — FIFO damaged by exhaustion", i, v, ok)
		}
	}
}

// TestSwapHeadsExhaustionIsAResult: a rotation needs a node for every
// new head; on a starved thread it fails with Exhausted and every stack
// keeps its top.
func TestSwapHeadsExhaustionIsAResult(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: starvedArena})
	setup := rt.RegisterThread()
	s1, s2 := repro.NewStack(setup), repro.NewStack(setup)
	s1.Push(setup, 1)
	s2.Push(setup, 2)

	starved := rt.RegisterThread()
	if repro.SwapHeads(starved, s1, s2) || !starved.Exhausted() {
		t.Fatal("SwapHeads on a starved thread must fail for want of nodes")
	}
	if v, ok := s1.Pop(setup); !ok || v != 1 {
		t.Fatalf("s1 top = %d,%v after the failed rotation, want 1", v, ok)
	}
	if v, ok := s2.Pop(setup); !ok || v != 2 {
		t.Fatalf("s2 top = %d,%v after the failed rotation, want 2", v, ok)
	}
}
