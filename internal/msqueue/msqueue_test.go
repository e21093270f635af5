package msqueue

import (
	"sync"
	"testing"

	"repro/internal/core"
)

func newRT() *core.Runtime {
	return core.NewRuntime(core.Config{MaxThreads: 16, ArenaCapacity: 1 << 18})
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	q := New(th)
	for i := uint64(1); i <= 100; i++ {
		if !q.Enqueue(th, i) {
			t.Fatal("plain enqueue must succeed")
		}
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := q.Dequeue(th)
		if !ok || v != i {
			t.Fatalf("dequeue %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(th); ok {
		t.Fatal("empty queue must report false")
	}
}

func TestDequeueEmpty(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	q := New(th)
	for i := 0; i < 10; i++ {
		if _, ok := q.Dequeue(th); ok {
			t.Fatal("dequeue on empty must fail")
		}
	}
	q.Enqueue(th, 5)
	if v, ok := q.Dequeue(th); !ok || v != 5 {
		t.Fatal("queue must recover after empty dequeues")
	}
}

func TestLenAndDrain(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	q := New(th)
	for i := uint64(0); i < 37; i++ {
		q.Enqueue(th, i)
	}
	if q.Len(th) != 37 {
		t.Fatalf("Len=%d", q.Len(th))
	}
	if q.Drain(th) != 37 {
		t.Fatal("Drain count mismatch")
	}
	if q.Len(th) != 0 {
		t.Fatal("queue not empty after drain")
	}
}

func TestInterfaceConformance(t *testing.T) {
	rt := newRT()
	th := rt.RegisterThread()
	q := New(th)
	var ins core.Inserter = q
	var rem core.Remover = q
	if !ins.Insert(th, 99, 7) {
		t.Fatal("Insert failed")
	}
	if v, ok := rem.Remove(th, 99); !ok || v != 7 {
		t.Fatal("Remove failed")
	}
	if q.ObjectID() == 0 {
		t.Fatal("ObjectID must be nonzero")
	}
	q2 := New(th)
	if q.ObjectID() == q2.ObjectID() {
		t.Fatal("distinct queues must have distinct ids")
	}
}

// TestMPMCConservation: every produced value is consumed exactly once,
// per-producer FIFO order is preserved.
func TestMPMCConservation(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 5000
	rt := core.NewRuntime(core.Config{MaxThreads: producers + consumers + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	q := New(setup)

	var wg sync.WaitGroup
	consumed := make([][]uint64, consumers)
	var done sync.WaitGroup
	done.Add(producers)

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer done.Done()
			th := rt.RegisterThread()
			for i := 0; i < perProducer; i++ {
				q.Enqueue(th, uint64(p)<<32|uint64(i))
			}
			th.FlushMemory()
		}(p)
	}

	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			th := rt.RegisterThread()
			for {
				v, ok := q.Dequeue(th)
				if ok {
					consumed[c] = append(consumed[c], v)
					continue
				}
				select {
				case <-stop:
					// Producers done; drain whatever remains.
					for {
						v, ok := q.Dequeue(th)
						if !ok {
							th.FlushMemory()
							return
						}
						consumed[c] = append(consumed[c], v)
					}
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	lastPerProducer := make(map[uint64]int64)
	for p := range lastPerProducer {
		lastPerProducer[p] = -1
	}
	total := 0
	for c := range consumed {
		perProd := make(map[uint64]int64)
		for p := 0; p < producers; p++ {
			perProd[uint64(p)] = -1
		}
		for _, v := range consumed[c] {
			if seen[v] {
				t.Fatalf("value %#x consumed twice", v)
			}
			seen[v] = true
			total++
			p, i := v>>32, int64(v&0xffffffff)
			if i <= perProd[p] {
				t.Fatalf("per-producer FIFO violated within one consumer: producer %d index %d after %d", p, i, perProd[p])
			}
			perProd[p] = i
		}
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d of %d values", total, producers*perProducer)
	}
}

func TestMemoryRecycled(t *testing.T) {
	rt := core.NewRuntime(core.Config{MaxThreads: 2, ArenaCapacity: 1 << 12})
	th := rt.RegisterThread()
	q := New(th)
	// Far more operations than the arena could hold without recycling.
	for round := 0; round < 200; round++ {
		for i := uint64(0); i < 100; i++ {
			q.Enqueue(th, i)
		}
		for i := uint64(0); i < 100; i++ {
			if v, ok := q.Dequeue(th); !ok || v != i {
				t.Fatalf("round %d: dequeue got %d ok=%v", round, v, ok)
			}
		}
	}
	if rt.Arena().Allocated() >= rt.Arena().Limit() {
		t.Fatal("arena exhausted: nodes are not being recycled")
	}
}
