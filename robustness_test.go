package repro_test

// Exhaustion-path coverage for the graceful-degradation facade: the
// Try* variants convert descriptor-pool and arena exhaustion — which
// the panic-compatible APIs surface as a typed panic — into
// ErrResourceExhausted, with the thread reset and reusable afterwards.

import (
	"errors"
	"testing"

	"repro"
)

// exhaustDescriptors drives th's first descriptor carve to take the
// whole pool: with DescCapacity equal to one carve batch (64), any
// descriptor-allocating op on one thread leaves nothing for a second.
func exhaustDescriptors(t *testing.T, th *repro.Thread, a, b *repro.HashMap) {
	t.Helper()
	if _, ok := repro.Move(th, a, b, 1, 1); !ok {
		t.Fatal("seed move failed")
	}
	if _, ok := repro.Move(th, b, a, 1, 1); !ok {
		t.Fatal("seed move back failed")
	}
}

func TestTryMoveResourceExhausted(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 3, DescCapacity: 64})
	setup := rt.RegisterThread()
	a := repro.NewHashMap(setup, 8)
	b := repro.NewHashMap(setup, 8)
	if !a.Insert(setup, 1, 10) || !a.Insert(setup, 2, 20) {
		t.Fatal("seed inserts failed")
	}
	exhaustDescriptors(t, setup, a, b)

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
	// … and the thread with descriptors keeps working.
	if _, ok := repro.Move(setup, a, b, 2, 2); !ok {
		t.Fatal("healthy thread broken by peer's exhaustion")
	}
}

func TestTryTransferKeysAndDrainResourceExhausted(t *testing.T) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 3, DescCapacity: 64})
	setup := rt.RegisterThread()
	a := repro.NewHashMap(setup, 8)
	b := repro.NewHashMap(setup, 8)
	q1 := repro.NewQueue(setup)
	q2 := repro.NewQueue(setup)
	for i := uint64(1); i <= 4; i++ {
		a.Insert(setup, i, 100+i)
		q1.Enqueue(setup, i)
	}
	exhaustDescriptors(t, setup, a, b)

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

func TestTryArenaExhaustion(t *testing.T) {
	// One arena carve batch (200 nodes) past the reserved prefix: the
	// constructor takes a node, then sustained Enqueue must hit the
	// wall inside Try, not panic.
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 208})
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
