// Benchmarks for the paper's evaluation and the ablations listed below.
//
//	go test -bench 'MoveContended' -cpu 1,2 # Fig. 2's move-only panel, lock-free and blocking
//	go test -bench 'A1_Overhead'             # scas/read overhead on plain ops
//	go test -bench 'A2_StackABA'             # §7 ABA-counter trade-off
//	go test -bench 'MoveN'                   # §8 n-object extension
//	go test -bench 'MoveSolo'                # solo Move vs the blocking baseline
//	go test -bench 'HashMove'                # §1.1 hash-map scenario
//
// The paper's Fig. 2–4 sweep 1–16 threads; a host reads only the thread
// counts it has processors for, so the contended benchmarks run one
// goroutine per GOMAXPROCS and are read at -cpu up to nproc. Every judged
// number comes from bench/ (docs/measurement.md).
//
// The engine's own probes (a pair DCAS against two plain CASes, the
// k-word CAS, a descriptor's life) are internal/kcas's benchmarks.
package repro_test

import (
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/msqueue"
	"repro/internal/plainqueue"
	"repro/internal/plainstack"
	"repro/internal/tstack"
	"repro/internal/verify"
)

// --- Contended moves: the paper's Fig. 2, move-only panel ------------------

// contendedPrefill is how many tokens the shared queue and the shared
// stack each start with, as in the paper's trials.
const contendedPrefill = 512

// contendedPair is one shared queue and one shared stack: move runs one
// move, queue → stack when there is set and back otherwise; drain empties
// both and returns how many tokens they held and the tokens' sum.
type contendedPair struct {
	move  func(th *core.Thread, there bool)
	drain func(th *core.Thread) (n, sum uint64)
}

// benchMoveContended runs b.N moves over one shared pair: every
// goroutine of b.RunParallel registers its own thread and alternates
// queue → stack and stack → queue. It fails unless the pair then holds
// exactly the prefill tokens, by count and by sum, so a smoke run checks
// concurrent moves against that oracle.
func benchMoveContended(b *testing.B, build func(setup *core.Thread) contendedPair) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: runtime.GOMAXPROCS(0) + 1})
	setup := rt.RegisterThread()
	pair := build(setup)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		th := rt.RegisterThread()
		there := false
		for pb.Next() {
			there = !there
			pair.move(th, there)
		}
	})
	b.StopTimer()
	const want = 2 * contendedPrefill
	if n, sum := pair.drain(setup); n != want || sum != want*(want+1)/2 {
		b.Fatalf("after %d moves the queue and stack hold %d tokens summing to %d, want %d summing to %d",
			b.N, n, sum, want, want*(want+1)/2)
	}
}

// drainSum empties each remove function's object and counts and sums
// what it removed.
func drainSum(th *core.Thread, removes ...func(*core.Thread) (uint64, bool)) (n, sum uint64) {
	for _, remove := range removes {
		for v, ok := remove(th); ok; v, ok = remove(th) {
			n++
			sum += v
		}
	}
	return n, sum
}

// BenchmarkMoveContended: lock-free Move between a shared queue and
// stack holding tokens 1..1024.
func BenchmarkMoveContended(b *testing.B) {
	benchMoveContended(b, func(setup *core.Thread) contendedPair {
		q, s := repro.NewQueue(setup), repro.NewStack(setup)
		for i := uint64(1); i <= contendedPrefill; i++ {
			q.Enqueue(setup, i)
			s.Push(setup, contendedPrefill+i)
		}
		return contendedPair{
			move: func(th *core.Thread, there bool) {
				if there {
					repro.Move(th, q, s, 0, 0)
				} else {
					repro.Move(th, s, q, 0, 0)
				}
			},
			drain: func(th *core.Thread) (uint64, uint64) { return drainSum(th, q.Dequeue, s.Pop) },
		}
	})
}

// BenchmarkBlockingMoveContended is BenchmarkMoveContended over the
// lock-based queue and stack (the paper's blocking baseline).
func BenchmarkBlockingMoveContended(b *testing.B) {
	benchMoveContended(b, func(setup *core.Thread) contendedPair {
		q, s := blocking.NewQueue(setup), blocking.NewStack(setup)
		for i := uint64(1); i <= contendedPrefill; i++ {
			q.Enqueue(setup, i)
			s.Push(setup, contendedPrefill+i)
		}
		return contendedPair{
			move: func(th *core.Thread, there bool) {
				if there {
					blocking.Move(th, q, s, 0, 0)
				} else {
					blocking.Move(th, s, q, 0, 0)
				}
			},
			drain: func(th *core.Thread) (uint64, uint64) { return drainSum(th, q.Dequeue, s.Pop) },
		}
	})
}

// --- A1: overhead of scas/read on the original operations ----------------

func BenchmarkA1_Overhead_Queue_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := msqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Queue_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	q := plainqueue.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(th, uint64(i))
		q.Dequeue(th)
	}
}

func BenchmarkA1_Overhead_Stack_MoveReady(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := tstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

func BenchmarkA1_Overhead_Stack_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := plainstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

// Contended A1: multiple threads doing plain operations on the
// move-ready vs plain queue.
func benchContendedQueuePair(b *testing.B, moveReady bool, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18})
	setup := rt.RegisterThread()
	var enq func(*core.Thread, uint64)
	var deq func(*core.Thread) (uint64, bool)
	if moveReady {
		q := msqueue.New(setup)
		enq = func(t *core.Thread, v uint64) { q.Enqueue(t, v) }
		deq = func(t *core.Thread) (uint64, bool) { return q.Dequeue(t) }
	} else {
		q := plainqueue.New(setup)
		enq = q.Enqueue
		deq = q.Dequeue
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				enq(th, uint64(i))
				deq(th)
			}
		}(th)
	}
	wg.Wait()
}

func BenchmarkA1_Contended_Queue_MoveReady_4T(b *testing.B) { benchContendedQueuePair(b, true, 4) }
func BenchmarkA1_Contended_Queue_Plain_4T(b *testing.B)     { benchContendedQueuePair(b, false, 4) }

// --- A2: §7 stack ABA --------------------------------------------------

// benchStackMoves: threads move a small token population between two
// stacks — the §7 worst case for false helping.
func benchStackMoves(b *testing.B, threads int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: threads + 1, ArenaCapacity: 1 << 18,
		Obs: repro.ObsConfig{Metrics: true}})
	setup := rt.RegisterThread()
	s1, s2 := tstack.New(setup), tstack.New(setup)
	for i := uint64(1); i <= 64; i++ {
		s1.Push(setup, i)
	}
	perThread := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		th := rt.RegisterThread()
		wg.Add(1)
		go func(th *core.Thread, w int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				if (i+w)&1 == 0 {
					th.Move(s1, s2, 0, 0)
				} else {
					th.Move(s2, s1, 0, 0)
				}
			}
		}(th, w)
	}
	wg.Wait()
	b.StopTimer()
	snap := rt.Obs().Metrics().Snapshot()
	b.ReportMetric(float64(snap.Get("kcas_helps_total"))/float64(b.N), "helps/op")
	b.ReportMetric(float64(snap.Get("kcas_stray_cleanups_total"))/float64(b.N), "strays/op")
}

func BenchmarkA2_StackABA_Move_Plain_4T(b *testing.B) { benchStackMoves(b, 4) }

// BenchmarkA2_StackABA_PlainOps_Plain: one push+pop on a stack of one
// thread, the normal operations a §7 counter would have slowed.
func BenchmarkA2_StackABA_PlainOps_Plain(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 16})
	th := rt.RegisterThread()
	s := tstack.New(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(th, uint64(i))
		s.Pop(th)
	}
}

// --- E-MOVEN: §8 extension --------------------------------------------------

func benchMoveN(b *testing.B, targets int) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	src := msqueue.New(th)
	dsts := make([]core.Inserter, targets)
	keys := make([]uint64, targets)
	sinks := make([]*tstack.Stack, targets)
	for i := range dsts {
		sinks[i] = tstack.New(th)
		dsts[i] = sinks[i]
	}
	src.Enqueue(th, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.MoveN(src, dsts, 0, keys); !ok {
			b.Fatal("MoveN failed")
		}
		// Recycle: drain one stack back into the source.
		v, _ := sinks[0].Pop(th)
		src.Enqueue(th, v)
		for j := 1; j < targets; j++ {
			sinks[j].Pop(th)
		}
	}
}

func BenchmarkMoveN_1Target(b *testing.B)  { benchMoveN(b, 1) }
func BenchmarkMoveN_2Targets(b *testing.B) { benchMoveN(b, 2) }
func BenchmarkMoveN_4Targets(b *testing.B) { benchMoveN(b, 4) }
func BenchmarkMoveN_7Targets(b *testing.B) { benchMoveN(b, 7) }

// --- Solo moves: core.move_vs_blocking_ratio --------------------------------

// soloResident is how many elements the solo-move queue and stack each
// hold, as in bench/'s probe.
const soloResident = 64

// moveSoloOp returns two lock-free Moves on one thread, queue → stack
// and back: the uncontended cost of the two-step chain decided by the
// pair DCAS, bench/'s core.move_solo_ns probe. A one-target MoveN runs
// the same chain (BenchmarkMoveN_1Target, which also pops and enqueues
// to recycle).
func moveSoloOp() func() {
	th := repro.NewRuntime(repro.Config{MaxThreads: 2}).RegisterThread()
	q, s := repro.NewQueue(th), repro.NewStack(th)
	for i := uint64(1); i <= soloResident; i++ {
		q.Enqueue(th, i)
		s.Push(th, i)
	}
	return func() {
		_, there := repro.Move(th, q, s, 0, 0)
		if _, back := repro.Move(th, s, q, 0, 0); !there || !back {
			panic("solo Move failed")
		}
	}
}

// blockingMoveSoloOp is moveSoloOp over the lock-based queue and stack
// (the paper's blocking baseline), bench/'s blocking.move_solo_ns probe.
func blockingMoveSoloOp() func() {
	th := repro.NewRuntime(repro.Config{MaxThreads: 2}).RegisterThread()
	q, s := blocking.NewQueue(th), blocking.NewStack(th)
	for i := uint64(1); i <= soloResident; i++ {
		q.Enqueue(th, i)
		s.Push(th, i)
	}
	return func() {
		_, there := blocking.Move(th, q, s, 0, 0)
		if _, back := blocking.Move(th, s, q, 0, 0); !there || !back {
			panic("solo blocking Move failed")
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkMoveSolo and BenchmarkBlockingMoveSolo time two moves per
// op; their ratio is core.move_vs_blocking_ratio.
func BenchmarkMoveSolo(b *testing.B)         { benchOp(b, moveSoloOp()) }
func BenchmarkBlockingMoveSolo(b *testing.B) { benchOp(b, blockingMoveSoloOp()) }

// TestMoveSoloNoAllocs: both solo-move probes run without allocating.
func TestMoveSoloNoAllocs(t *testing.T) {
	for name, op := range map[string]func(){"MoveSolo": moveSoloOp(), "BlockingMoveSolo": blockingMoveSoloOp()} {
		if n := verify.Mallocs(steadyOps, steadyOps, op); n != 0 {
			t.Errorf("%s: %d allocations over %d calls, want 0", name, n, steadyOps)
		}
	}
}

// --- E-MAP: sharded map -----------------------------------------------------

// Plain keyed throughput on one sharded map, no moves: the map's own
// hot path with grows amortized in.
func BenchmarkMap_InsertRemove_1T(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 8191
		m.Insert(th, k, k)
		m.Remove(th, k)
	}
}

// --- E-HASH: §1.1 scenario ---------------------------------------------------

func BenchmarkHashMove_MapToQueue(b *testing.B) {
	rt := repro.NewRuntime(repro.Config{MaxThreads: 2, ArenaCapacity: 1 << 20})
	th := rt.RegisterThread()
	m := repro.NewHashMap(th, 64)
	q := repro.NewQueue(th)
	m.Insert(th, 1, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := th.Move(m, q, 1, 0); !ok {
			b.Fatal("map→queue move failed")
		}
		if _, ok := th.Move(q, m, 0, 1); !ok {
			b.Fatal("queue→map move failed")
		}
	}
}
