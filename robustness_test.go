package repro_test

// Exhaustion-path coverage for the graceful-degradation facade: the
// Try* variants convert arena exhaustion — which the panic-compatible
// APIs surface as a typed panic — into ErrResourceExhausted, with the
// thread reset and reusable afterwards.

import (
	"errors"
	"math"
	"testing"

	"repro"
)

// starvedArena holds the reserved prefix and one per-thread node batch
// (200): the setup thread's first allocation takes the whole arena, so
// any node-allocating op on a second thread finds it empty.
const starvedArena = 208

func TestTryMoveResourceExhausted(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 3, ArenaCapacity: starvedArena})
	setup := rt.RegisterThread()
	a := repro.NewHashMap(setup, 8)
	b := repro.NewHashMap(setup, 8)
	if !a.Insert(setup, 1, 10) || !a.Insert(setup, 2, 20) {
		t.Fatal("seed inserts failed")
	}

	starved := rt.RegisterThread()
	_, _, err := repro.TryMove(starved, a, b, 2, 2)
	if err == nil {
		t.Fatal("TryMove on a starved thread must fail")
	}
	if !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("error %v does not unwrap to ErrResourceExhausted", err)
	}
	// The failure is stable (no partial state wedging the thread) …
	if _, _, err2 := repro.TryMove(starved, a, b, 2, 2); !errors.Is(err2, repro.ErrResourceExhausted) {
		t.Fatalf("second TryMove: %v", err2)
	}
	// … the op never executed …
	if _, in := b.Contains(setup, 2); in {
		t.Fatal("failed TryMove leaked the entry into the destination")
	}
	if v, in := a.Contains(setup, 2); !in || v != 20 {
		t.Fatal("failed TryMove damaged the source entry")
	}
	// … the starved thread's own descriptor-only work still runs …
	if _, ok, err := repro.TryMove(starved, a, b, 99, 99); ok || err != nil {
		t.Fatalf("absent-key TryMove: ok=%v err=%v", ok, err)
	}
	// … and the thread with nodes keeps working.
	if _, ok := repro.Move(setup, a, b, 2, 2); !ok {
		t.Fatal("healthy thread broken by peer's exhaustion")
	}
}

func TestTryTransferKeysAndDrainResourceExhausted(t *testing.T) {
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
	if _, _, err := repro.TryTransferKeys(starved, a, b, []uint64{2, 3}, []uint64{2, 3}); !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("TryTransferKeys: %v", err)
	}
	if _, err := repro.TryDrainN(starved, q1, q2, 0, 0, 3); !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("TryDrainN: %v", err)
	}
	// Nothing moved; the healthy thread still drains.
	if q1.Len(setup) != 4 || q2.Len(setup) != 0 {
		t.Fatalf("failed TryDrainN moved elements: %d/%d", q1.Len(setup), q2.Len(setup))
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
		if got, err := repro.TryDrainN(setup, q1, q2, 0, 0, n); err != nil || len(got) != 0 {
			t.Fatalf("TryDrainN(n=%d) = %v, %v", n, got, err)
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
	if got, err := repro.TryDrainN(th, s, q, 0, 0, math.MaxInt); err != nil || len(got) != 3 || got[0] != 3 {
		t.Fatalf("TryDrainN(MaxInt) = %v, %v, want [3 2 1]", got, err)
	}
}

func TestTryArenaExhaustion(t *testing.T) {
	// The constructor takes a node, then sustained Enqueue must hit the
	// wall inside Try, not panic.
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: starvedArena})
	th := rt.RegisterThread()
	q := repro.NewQueue(th)
	n := 0
	err := th.Try(func() {
		for i := 0; i < 400; i++ {
			if q.Enqueue(th, uint64(i+1)) {
				n++
			}
		}
	})
	if !errors.Is(err, repro.ErrResourceExhausted) {
		t.Fatalf("arena exhaustion: err=%v after %d enqueues", err, n)
	}
	if n == 0 {
		t.Fatal("no enqueue succeeded before exhaustion")
	}
	// The queue is intact: everything that reported success is there.
	if got := q.Len(th); got != n {
		t.Fatalf("queue holds %d elements, %d enqueues succeeded", got, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := q.Dequeue(th); !ok || v != uint64(i+1) {
			t.Fatalf("dequeue %d: %d,%v — FIFO damaged by exhaustion unwind", i, v, ok)
		}
	}
}
