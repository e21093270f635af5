package pqueue

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mm"
	"repro/internal/msqueue"
	"repro/internal/tstack"
)

func newRT(threads int) *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: threads, ArenaCapacity: 1 << 18})
}

func TestMinOrder(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	pq := New(th)
	for _, pr := range []uint64{50, 10, 90, 30, 70} {
		if !pq.Insert(th, pr, pr*100) {
			t.Fatalf("insert %d failed", pr)
		}
	}
	want := []uint64{10, 30, 50, 70, 90}
	for _, w := range want {
		pr, val, ok := pq.RemoveMin(th)
		if !ok || pr != w || val != w*100 {
			t.Fatalf("RemoveMin: %d,%d,%v want %d", pr, val, ok, w)
		}
	}
	if _, _, ok := pq.RemoveMin(th); ok {
		t.Fatal("empty RemoveMin must fail")
	}
}

func TestDuplicatePriorities(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	pq := New(th)
	for i := uint64(0); i < 100; i++ {
		if !pq.Insert(th, 5, i) {
			t.Fatalf("duplicate-priority insert %d failed", i)
		}
	}
	if pq.Len(th) != 100 {
		t.Fatalf("Len=%d", pq.Len(th))
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		pr, val, ok := pq.RemoveMin(th)
		if !ok || pr != 5 {
			t.Fatalf("RemoveMin %d: pr=%d ok=%v", i, pr, ok)
		}
		if seen[val] {
			t.Fatalf("value %d twice", val)
		}
		seen[val] = true
	}
}

func TestMinPeek(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	pq := New(th)
	if _, _, ok := pq.Min(th); ok {
		t.Fatal("Min on empty")
	}
	pq.Insert(th, 9, 90)
	pq.Insert(th, 3, 30)
	pr, val, ok := pq.Min(th)
	if !ok || pr != 3 || val != 30 {
		t.Fatalf("Min: %d,%d,%v", pr, val, ok)
	}
	if pq.Len(th) != 2 {
		t.Fatal("Min must not remove")
	}
}

func TestPriorityBounds(t *testing.T) {
	rt := newRT(1)
	th := rt.RegisterThread()
	pq := New(th)
	if pq.Insert(th, MaxPriority+1, 1) {
		t.Fatal("over-limit priority must be rejected")
	}
	if !pq.Insert(th, MaxPriority, 1) {
		t.Fatal("max priority must be accepted")
	}
	pr, _, _ := pq.RemoveMin(th)
	if pr != MaxPriority {
		t.Fatalf("roundtrip priority %d", pr)
	}
}

// TestStarvedInsertFails: an insert the arena has no node for is
// refused with Exhausted set, changes nothing, and succeeds once a peer
// frees nodes.
func TestStarvedInsertFails(t *testing.T) {
	// The peer's first allocation carves the whole arena.
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: arena.ReservedIndexes + mm.LocalListCap})
	peer := rt.RegisterThread()
	pq := New(peer)
	pq.Insert(peer, 7, 70)
	th := rt.RegisterThread()
	if pq.Insert(th, 5, 50) || !th.Exhausted() {
		t.Fatal("starved Insert must fail with Exhausted set")
	}
	if pr, v, ok := pq.Min(th); !ok || pr != 7 || v != 70 || pq.Len(th) != 1 {
		t.Fatalf("starved Insert changed the queue: min %d,%d,%v", pr, v, ok)
	}
	peer.FlushMemory() // the peer's unused nodes go to the global stack
	if !pq.Insert(th, 5, 50) || th.Exhausted() {
		t.Fatal("Insert failed once nodes were freed")
	}
}

func TestMoveWithQueue(t *testing.T) {
	rt := newRT(2)
	th := rt.RegisterThread()
	pq := New(th)
	q := msqueue.New(th)
	pq.Insert(th, 7, 700)
	pq.Insert(th, 2, 200)

	// Move the most urgent item out of the priority queue.
	if v, ok := th.Move(pq, q, 0, 0); !ok || v != 200 {
		t.Fatalf("pq→queue move: %d,%v", v, ok)
	}
	if pq.Len(th) != 1 {
		t.Fatal("pq should have one element left")
	}
	// Move it back in at priority 1 (most urgent).
	if v, ok := th.Move(q, pq, 0, 1); !ok || v != 200 {
		t.Fatalf("queue→pq move: %d,%v", v, ok)
	}
	pr, val, _ := pq.RemoveMin(th)
	if pr != 1 || val != 200 {
		t.Fatalf("moved element priority/val: %d/%d", pr, val)
	}
}

func TestConcurrentOrderedDrain(t *testing.T) {
	const workers = 4
	const per = 2000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	pq := New(setup)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for i := 0; i < per; i++ {
				if !pq.Insert(th, uint64(w*per+i), uint64(i)) {
					t.Errorf("insert failed")
					return
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	if pq.Len(setup) != workers*per {
		t.Fatalf("Len=%d", pq.Len(setup))
	}
	var drained []uint64
	for {
		pr, _, ok := pq.RemoveMin(setup)
		if !ok {
			break
		}
		drained = append(drained, pr)
	}
	if len(drained) != workers*per {
		t.Fatalf("drained %d", len(drained))
	}
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] <= drained[j] }) {
		t.Fatal("drain not in priority order")
	}
}

// TestConcurrentMixedWithMoves circulates tokens between a priority
// queue and a FIFO queue under concurrent movers; conservation must
// hold.
func TestConcurrentMixedWithMoves(t *testing.T) {
	const workers = 6
	const tokens = 128
	const opsPer = 3000
	rt := newRT(workers + 1)
	setup := rt.RegisterThread()
	pq := New(setup)
	q := msqueue.New(setup)
	for i := uint64(1); i <= tokens; i++ {
		pq.Insert(setup, i, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread()
			rng := uint64(w)*2654435761 + 99
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPer; i++ {
				if next()&1 == 0 {
					th.Move(pq, q, 0, next()%1000)
				} else {
					th.Move(q, pq, 0, next()%1000)
				}
			}
			th.FlushMemory()
		}(w)
	}
	wg.Wait()
	seen := map[uint64]int{}
	for {
		_, v, ok := pq.RemoveMin(setup)
		if !ok {
			break
		}
		seen[v]++
	}
	for {
		v, ok := q.Dequeue(setup)
		if !ok {
			break
		}
		seen[v]++
	}
	if len(seen) != tokens {
		t.Fatalf("%d distinct tokens, want %d", len(seen), tokens)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("token %d seen %d times", v, n)
		}
	}
}

// TestRemoveMinNotOvertakenByInsert: a Move out of the queue takes the
// minimum in force when it decides, not the one its RemoveMin found. The
// move finds priority 5 and captures its removal; a push onto the target
// stack fails its first decision; while the move recycles that
// descriptor, priority 1 is inserted and then X is pushed. The move's
// second decision comes after X's push — the stack pops the moved value
// above X — so it comes after the insert too, and must move priority 1.
// A RemoveMin that marks the found node's own Next, as a Harris list's
// remove does, never sees the insert in front of it and moves 5.
func TestRemoveMinNotOvertakenByInsert(t *testing.T) {
	plan := fault.NewPlan()
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: 1 << 12, Fault: plan})
	victim, peer := rt.RegisterThread(), rt.RegisterThread()
	pq, s := New(victim), tstack.New(victim)
	pq.Insert(victim, 5, 50)
	plan.Park(fault.KCASAfterPublish, fault.Nth(1).OnThread(victim.ID()))
	plan.Park(fault.KCASBeforeRecycle, fault.Nth(1).OnThread(victim.ID()))
	defer plan.Release()
	parked := func(n int) {
		for i := 0; plan.Parked() < n; i++ {
			if i > 5000 {
				t.Fatalf("the move never parked %d times", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	moved := make(chan uint64, 1)
	go func() {
		v, _ := victim.Move(pq, s, 0, 0)
		moved <- v
	}()
	parked(1)
	s.Push(peer, 7) // the target's top changes under the published move: its decision fails
	plan.Release()
	parked(1)
	pq.Insert(peer, 1, 10)
	s.Push(peer, 8) // X
	plan.Release()
	if v := <-moved; v != 10 {
		t.Fatalf("the move took %d, want 10: priority 1 was inserted before the push that the move's value lands above", v)
	}
	if v, _ := s.Pop(peer); v != 10 {
		t.Fatalf("the stack's top is %d, want the moved 10", v)
	}
	if pr, v, ok := pq.RemoveMin(peer); !ok || pr != 5 || v != 50 {
		t.Fatalf("RemoveMin = %d,%d,%v, want 5,50,true", pr, v, ok)
	}
}
